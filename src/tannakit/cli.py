"""Batch command-line front end.

Every subcommand maps onto one library operation, prints a human-readable
table on stdout and can write a canonical JSON certificate with --out.
Certificates are byte-identical across runs on identical inputs: keys are
sorted, no timestamps, exact scalars only.

Exit codes: 0 all checks passed, 1 invalid input, 2 a mathematical check
failed.  A failed check that raised (CheckFailed, BudgetExceeded) writes a
certificate with ok false, empty results and a failure message.

Each command runs as a fresh process, so this module holds only what every
command runs (the parser, main and the certificate output) and the handlers
of homology, product and les.  Every other handler lives in the layer it
runs, beside the code it calls (cmd_kunneth in tannakit.kunneth, cmd_cech
in tannakit.cech, ...), and HANDLERS reaches it by a _deferred call that
imports that layer on the first call: a command compiles its own handler
and the layers it calls, and no other command's.  The corpus digest is the
interpreter's own sha256 module, not hashlib's, which loads OpenSSL; json
is imported by canonical_json, for --out only; the bundled corpus is read
through the package's loader (zip-safe), not importlib.resources.
"""

import argparse
import os
import sys

try:        # hashlib loads OpenSSL's libcrypto; the interpreter's own module is light
    from _sha2 import sha256                  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256            # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__, _deferred
from .errors import BudgetExceeded, CheckFailed, InputError, TannakitError
from .linalg import QQ, ZZ
from .simplicial import pair_homology, product_pair
from .corpus import Corpus

TOOL = "tannakit %s" % __version__

Z_COMMANDS = {"homology", "les", "triple-boundary", "product", "cup", "cech",
              "filtration", "compare-filtration", "very-good-search",
              "comodule-check", "torsionfree-cover"}


def canonical_json(obj):
    import json
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (pad, k))
                lines.extend(render(v, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, k, v))
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.extend(render(v, indent))
                lines.append("%s-" % pad)
            else:
                lines.append("%s- %s" % (pad, v))
    else:
        lines.append("%s%s" % (pad, obj))
    return lines


def homology_table(pair, ring):
    cx = pair_homology(pair, ring)
    return {"n=%d" % n: cx.homology_module(n).describe()
            for n in range(0, max(pair.X.dim, 0) + 1)}


# -- handlers; each returns (results dict, ok) --------------------------------

def cmd_homology(corpus, ring, args):
    pair = _pair(corpus, args.pair)
    return {"pair": args.pair, "homology": homology_table(pair, ring)}, True


def cmd_les(corpus, ring, args):
    from .les import les_exactness
    pair = _pair(corpus, args.pair)
    cert = les_exactness(pair, ring)
    return {"pair": args.pair, "les": cert.as_dict()}, cert.ok


def cmd_product(corpus, ring, args):
    p1 = _pair(corpus, args.pair1)
    p2 = _pair(corpus, args.pair2)
    pp = product_pair(p1, p2)
    counts = {"dim %d" % d: len(pp.X.simplices(d)) for d in range(0, pp.X.dim + 1)}
    return {"pairs": [args.pair1, args.pair2], "simplices": counts,
            "homology": homology_table(pp, ring)}, True


def _pair(corpus, name):
    if name not in corpus.pairs:
        raise InputError("unknown pair %r" % name)
    return corpus.pairs[name]


# the layer that holds each other command's handler, cmd_<command> with - as
# _: HANDLERS reaches it by a _deferred call, which imports the layer on the
# command's first call
LAYERS = {
    "triple-boundary": "maps", "kunneth": "kunneth", "cup": "cochains", "cech": "cech",
    "filtration": "filtration", "compare-filtration": "filtration",
    "very-good-search": "search", "end-algebra": "tannaka", "coalgebra": "coalgebra",
    "coaction": "coalgebra", "transition": "transition", "factorization-check": "transition",
    "bialgebra-check": "bialgebra", "sigma": "sigma", "sigma-system": "bialgebra",
    "comodule-check": "comodule", "torsionfree-cover": "comodule",
}
HANDLERS = {"homology": cmd_homology, "les": cmd_les, "product": cmd_product}
HANDLERS.update((c, _deferred(m, "cmd_" + c.replace("-", "_"))) for c, m in LAYERS.items())


# the arguments of each command: a name, or (name, add_argument keywords)
ARGUMENTS = {
    "homology": ["pair"],
    "les": ["pair"],
    "triple-boundary": ["X", "Z", "W", ("degree", {"type": int})],
    "product": ["pair1", "pair2"],
    "kunneth": ["diagram", "v", "w"],
    "cup": ["X", "Z1", "Z2", ("p", {"type": int}), ("q", {"type": int})],
    "cech": ["cover", ("divisors", {"nargs": "?"})],
    "filtration": ["filtration"],
    "compare-filtration": ["filtration"],
    "very-good-search": ["X", "--base", ("--budget", {"type": int, "default": 10000})],
    "end-algebra": ["subdiagram"],
    "coalgebra": ["subdiagram"],
    "coaction": ["subdiagram", "vertex"],
    "transition": ["sub_small", "sub_big"],
    "factorization-check": ["subdiagram"],
    "bialgebra-check": ["tower"],
    "sigma": ["subdiagram"],
    "sigma-system": ["tower", ("--depth", {"type": int, "default": 1})],
    "comodule-check": ["comodule"],
    "torsionfree-cover": ["comodule"],
}


def build_parser():
    """The global options and COMMAND; the arguments of the command are left
    in `rest` for parse_args."""
    parser = argparse.ArgumentParser(
        prog="tannakit",
        description="Exact relative simplicial homology, filtration and Cech "
                    "models, and diagram Tannaka duality with certificates.",
        epilog="`tannakit <command> --help` lists the arguments of that command.")
    parser.add_argument("--corpus", help="corpus file (default: bundled)")
    parser.add_argument("--ring", choices=[ZZ, QQ],
                        help="coefficients: z or q (default depends on the command)")
    parser.add_argument("--out", help="write the canonical JSON certificate here")
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("rest", nargs=argparse.REMAINDER, metavar="ARGS",
                        help="the arguments of the command")
    return parser


def parse_args(argv=None):
    """Two-stage parse into one namespace: the global options and COMMAND,
    then the arguments of COMMAND with a parser built for that command only,
    not all twenty; exits 2 on bad usage."""
    args = build_parser().parse_args(argv)
    rest = args.rest
    del args.rest
    parser = argparse.ArgumentParser(prog="tannakit " + args.command)
    for arg in ARGUMENTS[args.command]:
        name, kwargs = (arg, {}) if isinstance(arg, str) else arg
        parser.add_argument(name, **kwargs)
    return parser.parse_args(rest, namespace=args)


def default_corpus_text():
    path = os.path.join(os.path.dirname(__file__), "data", "main.corpus")
    return __loader__.get_data(path).decode("utf-8")


def _input_error(message):
    print("input error: %s" % message, file=sys.stderr)
    return 1


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.corpus:
            with open(args.corpus, "r", encoding="utf-8") as fh:
                text = fh.read()
            source = args.corpus
        else:
            text = default_corpus_text()
            source = "<bundled>"
        digest = sha256(text.encode("utf-8")).hexdigest()
        corpus = Corpus(text)
    except (OSError, UnicodeDecodeError, InputError) as exc:
        return _input_error(exc)
    ring = args.ring or corpus.ring or (ZZ if args.command in Z_COMMANDS else QQ)
    failure = None
    try:
        results, ok = HANDLERS[args.command](corpus, ring, args)
    except InputError as exc:
        return _input_error(exc)
    except BudgetExceeded as exc:
        results, ok, failure = {}, False, "budget exceeded: %s" % exc
    except CheckFailed as exc:
        results, ok, failure = {}, False, "check failed: %s" % exc
    except TannakitError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    cert = {
        "tool": TOOL,
        "command": args.command,
        "arguments": {k: v for k, v in sorted(vars(args).items())
                      if k not in ("corpus", "out") and v is not None},
        "corpus": source,
        "corpus_sha256": digest,
        "ring": ring,
        "ok": ok,
        "results": results,
    }
    if failure:
        cert["failure"] = failure
    for line in render({"command": args.command, "ring": ring, "ok": ok}):
        print(line)
    for line in render(results):
        print(line)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(canonical_json(cert))
        except OSError as exc:
            return _input_error(exc)
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
