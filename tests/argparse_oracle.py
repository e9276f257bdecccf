"""The argparse front end that `cobalt.cli` used before its option table.

`build_parser` and the `--window` join are kept here unchanged, as the
reference that `tests/test_cli.py` compares `cobalt.cli.parse_args`
against.
"""

import argparse

from cobalt import __version__


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cobalt",
        description="Exact Schur calculus, formal group laws, and "
                    "Landweber regularity reports.")
    parser.add_argument("--version", action="version",
                        version=f"cobalt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grass",
                       help="Schur basis and checks for one (n, d)")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--verify",
                   choices=["all", "complex", "identities", "pairing",
                            "products"])

    f = sub.add_parser("fgl", help="formal group law coefficient tables")
    f.add_argument("--law", required=True,
                   choices=["additive", "multiplicative", "universal-q"])
    f.add_argument("--N", type=int, default=8,
                   help="truncation order (default 8)")
    f.add_argument("--check", action="store_true",
                   help="verify the group-law axioms")
    f.add_argument("--p-series", type=int, metavar="P", dest="p_series")
    f.add_argument("--landweber", nargs=2, type=int, metavar=("P", "H"),
                   help="emit the sequence p, v_1, .., v_H")

    l = sub.add_parser("landweber", help="regular-sequence verdicts")
    l.add_argument("--module", metavar="FILE",
                   help="module presentation (default: free of rank one)")
    l.add_argument("--law", default="multiplicative",
                   help="additive, multiplicative, or a JSON law file")
    l.add_argument("--primes", default="2,3,5")
    l.add_argument("--height", type=int, default=3)
    l.add_argument("--window", default="-10:10", metavar="LO:HI")

    o = sub.add_parser("oriented",
                       help="Schur-class modules with general coefficients")
    o.add_argument("--coeff", metavar="FILE",
                   help="coefficient ring presentation (default: Z)")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--d", type=int, required=True)
    o.add_argument("--thom", action="store_true",
                   help="include the Thom class and zero-section checks")

    h = sub.add_parser("hopf", help="Hopf algebroid reports")
    h.add_argument("--N", type=int, required=True,
                   help="truncation order")
    h.add_argument("--induced", metavar="FILE",
                   help="build the induced algebroid of a law file")

    c = sub.add_parser("cobordism", help="rational dimension tables")
    c.add_argument("--field", required=True,
                   help="Q, F<q>, or number:r1,r2")
    c.add_argument("--window", default="-10:10,-5:5",
                   metavar="PLO:PHI,QLO:QHI")
    c.add_argument("--verify", action="store_true",
                   help="check the table against the closed form")
    c.add_argument("--format", choices=["json", "csv"], default="json")

    v = sub.add_parser("verify-all", help="run the whole check suite")
    v.add_argument("--seed", type=int, default=0,
                   help="seed for the perturbation checks (default 0)")
    v.add_argument("--budget", type=float, default=300.0,
                   help="wall-clock limit in seconds (default 300)")
    v.add_argument("--timings", action="store_true",
                   help="include timing fields (breaks byte-identity)")
    return parser


def join_window(argv):
    argv = list(argv)
    for i, token in enumerate(argv[:-1]):
        # windows often start with "-"; join so argparse keeps the value
        if token == "--window":
            argv[i:i + 2] = [f"--window={argv[i + 1]}"]
            break
    return argv


def parse_args(argv):
    """The old `main`'s parse: the `--window` join, then argparse."""
    return build_parser().parse_args(join_window(argv))
