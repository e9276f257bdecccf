"""Command-line front end: JSON and CSV reports over the library.

One table, COMMANDS, holds each command's handler and options; parse_args
reads argv against it.  Exit codes: 0 when every requested check passes,
1 when a check fails, 2 on bad usage or unreadable/invalid input.  JSON
output is sorted and seed-deterministic; only --timings adds timings.
"""

import csv
import json
import math
import sys
import time
import types

from . import __version__
from . import verify as verify_mod
from .errors import AxiomsFail, BoundExceeded, CobaltError, InputError
from .fgl import (
    FormalGroupLaw,
    fgl_additive,
    fgl_check_axioms,
    fgl_multiplicative,
    fgl_universal_rational,
    p_series,
)
from .grassmann import (
    complex_report,
    determinant_identities,
    gram_report,
    grassmannian,
    products_report,
    size_limit,
)
from .hopf import induced_hopf, mumu_rational_truncated, verify_hopf_axioms
from .landweber import (
    ModulePresentation,
    check_exact,
    sequence_for_prime,
)
from .oriented import FreeModuleOnSchur, thom_class, zero_section_report
from .rings import (
    REQUIRED,
    json_fields,
    laurent_ring,
    load_presentation,
    parse_expression,
    polynomial_ring,
)
from .series import TruncSeries
from .tables import FieldDescriptor, mgl_rational_table


# -- small parsers ----------------------------------------------------------


def _parse_span(text):
    """'lo:hi' -> (lo, hi) with lo <= hi."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise InputError(f"window piece {text!r} must look like lo:hi")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise InputError(f"window bounds in {text!r} must be integers")
    if lo > hi:
        raise InputError(f"window {text!r} is empty")
    return lo, hi


def _parse_window_pair(text):
    """'plo:phi,qlo:qhi' -> ((plo, phi), (qlo, qhi))."""
    first, sep, second = text.partition(",")
    if not sep:
        raise InputError(f"window {text!r} must look like plo:phi,qlo:qhi")
    return _parse_span(first), _parse_span(second)


_FACTOR_LIMIT = 10 ** 12


def _prime_power_base(q):
    """The prime p with q = p^k for some k >= 1, or None.

    Trial division up to sqrt(q), so q is capped at 10^12 (at most 10^6
    divisions) and a larger q is refused.
    """
    if q < 2:
        return None
    if q > _FACTOR_LIMIT:
        raise InputError(f"{q} is above 10^12, too large to factor")
    p = next((k for k in range(2, math.isqrt(q) + 1) if q % k == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


def _require_prime(p, what):
    if _prime_power_base(p) != p:
        raise InputError(f"{what} {p} is not a prime")
    return p


def _parse_primes(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            p = int(piece)
        except ValueError:
            raise InputError(f"prime list entry {piece!r} is not an integer")
        if p in out:
            raise InputError(f"prime list entry {p} is repeated")
        out.append(_require_prime(p, "prime list entry"))
    return out


def _parse_field(text):
    if text == "Q":
        return FieldDescriptor.rationals()
    if text.startswith("number:"):
        pieces = text[len("number:"):].split(",")
        if len(pieces) != 2:
            raise InputError("number fields are written number:r1,r2")
        try:
            r1, r2 = int(pieces[0]), int(pieces[1])
        except ValueError:
            raise InputError("number field signature must be two integers")
        return FieldDescriptor.number_field(r1, r2)
    digits = text[1:]
    if text[:1] == "F" and digits.isascii() and digits.isdigit():
        try:
            q = int(digits)
        except ValueError:     # past int()'s digit limit, so past 10^12
            raise InputError("finite field size is above 10^12, too large "
                             "to factor") from None
        if _prime_power_base(q) is None:
            raise InputError(f"F{q}: a finite field has prime-power size")
        return FieldDescriptor.finite(q)
    raise InputError(
        f"unknown field {text!r}; use Q, F<q>, or number:r1,r2")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise InputError(f"{path} is nested too deeply") from None


def _coefficient_value(value, ring):
    """An integer or an expression string, as an element of `ring`."""
    return ring.const(value) if isinstance(value, int) \
        else parse_expression(value, ring)


def _custom_law(doc, ring):
    """A law from an explicit coefficient table over `ring`.

    Schema: {"order": int, "exact": bool?,
             "coefficients": [{"i": int, "j": int, "value": int|str?}]?}.
    The (1,0) and (0,1) coefficients are fixed at 1; each listed entry
    is mirrored to (j,i) since any group law is commutative.
    """
    order, exact, entries = json_fields(
        doc, "law", order=(int, REQUIRED), exact=(bool, False),
        coefficients=(list[dict], []))
    if order < 2:
        raise InputError("law field 'order' must be at least 2")
    coeffs = {(1, 0): ring.one(), (0, 1): ring.one()}
    for entry in entries:
        i, j, value = json_fields(entry, "coefficient", i=(int, REQUIRED),
                                  j=(int, REQUIRED), value=(int | str, 0))
        if min(i, j) < 0 or not 2 <= i + j <= order:
            raise InputError(f"coefficient ({i},{j}) is not settable: a law "
                             f"of 'order' {order} takes i, j >= 0 and "
                             f"2 <= i + j <= {order}")
        value = _coefficient_value(value, ring)
        for key in ((i, j), (j, i)):
            if key in coeffs and coeffs[key] != value:
                raise InputError(
                    f"conflicting values for coefficient {key}")
            coeffs[key] = value
    series = TruncSeries(ring, order, coeffs, nvars=2)
    law = FormalGroupLaw(ring, series, order, exact=exact)
    axioms = fgl_check_axioms(law)
    if not axioms["ok"]:
        bad = sorted(k for k, v in axioms.items() if k != "ok" and not v)
        raise AxiomsFail(f"custom law fails: {', '.join(bad)}")
    return law


def _load_module(doc):
    """(ring, module) from {"ring", "generators"?, "relations"?}; the
    fields of a relation are generator names, each an integer or an
    expression string."""
    ring_doc, generators, relations = json_fields(
        doc, "module", ring=(object, REQUIRED),
        generators=(list[dict], [{"name": "e", "adams_degree": 0}]),
        relations=(list[dict], []))
    ring = load_presentation(ring_doc)
    generators = [tuple(json_fields(g, "module generator",
                                    name=(str, REQUIRED),
                                    adams_degree=(int, REQUIRED)))
                  for g in generators]
    schema = dict.fromkeys((name for name, _ in generators), (int | str, 0))
    relations = [{name: _coefficient_value(value, ring) for name, value in
                  zip(schema, json_fields(rel, "module relation", **schema))}
                 for rel in relations]
    return ring, ModulePresentation(ring, generators, relations)


def _report(command, **fields):
    return {"schema": 1, "tool_version": __version__, "command": command,
            **fields}


# -- grass -------------------------------------------------------------------


def _cmd_grass(args):
    G = grassmannian(args.n, args.d)
    report = _report("grass", n=args.n, d=args.d, rank=G.rank,
                     basis=[list(lam) for lam in G.partitions()])
    checks = []
    if args.verify:
        # each check returns (ok, witness), the witness None when ok
        named = {"complex": complex_report,
                 "identities": determinant_identities,
                 "pairing": gram_report, "products": products_report}
        tokens = [args.verify]
        if args.verify == "all":
            tokens = [t for t in named if t != "complex" or args.d < args.n]
        for token in tokens:
            ok, witness = named[token](args.n, args.d)
            checks.append({"name": token, "pass": ok})
            if not ok:
                checks[-1]["witness"] = witness
        report["checks"] = checks
    return report, all(c["pass"] for c in checks)


# -- fgl ---------------------------------------------------------------------


# Each built-in law: its builder (ring, order) and the ring it uses when no
# file supplies one.  The first is the default law of `landweber`.
LAWS = {"multiplicative": (fgl_multiplicative,
                           lambda: laurent_ring("Z", "beta")),
        "additive": (fgl_additive, lambda: polynomial_ring("Z", []))}


def _law(spec, ring, order):
    """The law `spec` over `ring`: a LAWS name, built to `order` (over its
    own ring when `ring` is None), or a coefficient table (`_custom_law`)."""
    if isinstance(spec, str):
        if spec not in LAWS:
            raise InputError(f"'law' must be {', '.join(LAWS)}, "
                             "or a coefficient table")
        build, default_ring = LAWS[spec]
        return build(default_ring() if ring is None else ring, order)
    if ring is None:
        raise InputError(
            "a custom law needs a 'ring' field or a --module file")
    return _custom_law(spec, ring)


def _cmd_fgl(args):
    order = args.N
    if order < 2:
        raise InputError("need a truncation order N >= 2")
    if args.landweber is not None:
        _require_prime(args.landweber[0], "--landweber prime")
    law = fgl_universal_rational(order) if args.law == "universal-q" \
        else _law(args.law, None, order)
    coefficients = {f"{i},{j}": str(c)
                    for (i, j), c in sorted(law.series.coeffs.items())
                    if not c.is_zero()}
    report = _report("fgl", law=args.law, order=order,
                     coefficients=coefficients)
    ok = True
    if args.check:
        report["axioms"] = axioms = fgl_check_axioms(law, order=order)
        ok = axioms["ok"]
    if args.p_series is not None:
        series = p_series(law, args.p_series, order)
        report["p_series"] = {
            "p": args.p_series,
            "coefficients": {str(k): str(c)
                             for (k,), c in sorted(series.coeffs.items())
                             if not c.is_zero()}}
    if args.landweber is not None:
        prime, height = args.landweber
        sequence = sequence_for_prime(law, prime, height)
        report["landweber_generators"] = {
            "prime": prime, "height": height,
            "sequence": [str(v) for v in sequence]}
    return report, ok


# -- landweber ----------------------------------------------------------------


def _cmd_landweber(args):
    window = _parse_span(args.window)
    primes = _parse_primes(args.primes)
    if args.height < 0:
        raise InputError("height must be nonnegative")
    # a law file may carry the ring, used when no --module is given
    spec = args.law if args.law in LAWS else _read_json(args.law)
    ring_doc = spec.pop("ring", None) if isinstance(spec, dict) else None
    ring = module = None
    if args.module:
        ring, module = _load_module(_read_json(args.module))
    elif ring_doc is not None:
        ring = load_presentation(ring_doc)
    # the built-in laws are polynomials, so their order only sizes a table
    law = _law(spec, ring, 8)
    module = module or ModulePresentation.free(law.ring)
    verdicts, exact = check_exact(module, law, primes, args.height, window)
    return _report("landweber", law=args.law, height=args.height,
                   window=list(window), primes=primes,
                   verdicts={str(p): v.to_dict()
                             for p, v in verdicts.items()},
                   exact=exact), exact


# -- oriented ------------------------------------------------------------------


def _cmd_oriented(args):
    limit = size_limit()
    if args.thom and args.n + 1 > limit:
        raise BoundExceeded(
            f"--n {args.n} is too large for --thom, which needs "
            f"R(n+1, d+1) = R({args.n + 1}, {args.d + 1}) within the size "
            f"limit {limit}; set COBALT_MAX_N to raise it")
    coeff = load_presentation(_read_json(args.coeff)) if args.coeff \
        else polynomial_ring("Z", [])
    module = FreeModuleOnSchur(coeff, args.n, args.d)
    report = _report(
        "oriented", n=args.n, d=args.d, rank=module.rank,
        basis=[list(lam) for lam in module.grass.partitions()],
        coefficient_ring={"base": coeff.base,
                          "generators": [g.name for g in coeff.gens]})
    ok = True
    if args.thom:
        _, th = thom_class(args.n, args.d)
        report["thom_class"] = {f"x^{k}": str(c)
                                for k, c in enumerate(th.vec)
                                if not c.is_zero()}
        report["zero_section"] = section = zero_section_report(args.n, args.d)
        ok = section["ok"]
    return report, ok


# -- hopf ----------------------------------------------------------------------


def _cmd_hopf(args):
    if args.N < 2:
        raise InputError("need a truncation order N >= 2")
    if args.induced:
        ring_doc, spec = json_fields(
            _read_json(args.induced), "induced law file",
            ring=(object, REQUIRED), law=(object, REQUIRED))
        ring = load_presentation(ring_doc)
        result = induced_hopf(ring, _law(spec, ring, args.N), args.N)
        collapse = result.collapse_identifies_units()
        return _report("hopf", N=args.N, induced=result.to_dict(),
                       collapse_identifies_units=collapse), collapse

    H = mumu_rational_truncated(args.N)
    axioms = verify_hopf_axioms(H)
    right_unit = {k: str(v) for k, v in sorted(H.eta_R.items())}
    # the m-entries of the conjugation are the eta_R objects printed above
    conjugation = {k: right_unit[k] if v is H.eta_R.get(k) else str(v)
                   for k, v in sorted(H.conjugation.items())}
    return _report(
        "hopf", N=args.N,
        algebra_generators=[g.name for g in H.A.gens],
        gamma_generators=[g.name for g in H.Gamma.gens],
        right_unit=right_unit,
        counit={k: str(v) for k, v in sorted(H.counit.items())},
        comult={k: str(v) for k, v in sorted(H.comult.items())},
        conjugation=conjugation,
        axioms=axioms), axioms["pass"]


# -- cobordism -------------------------------------------------------------------


def _cmd_cobordism(args):
    field = _parse_field(args.field)
    p_span, q_span = _parse_window_pair(args.window)
    table = mgl_rational_table(field, p_span, q_span)
    p_values = list(range(p_span[0], p_span[1] + 1))
    q_values = list(range(q_span[0], q_span[1] + 1))
    cells = [[table[(p, q)].render() for q in q_values] for p in p_values]
    report = _report("cobordism", field=field.label,
                     window={"p": list(p_span), "q": list(q_span)},
                     p_values=p_values, q_values=q_values, cells=cells)
    ok = True
    if args.verify:
        report["verification"] = verify_mod.cobordism_report(
            field, p_span, q_span)
        ok = report["verification"]["pass"]
    return report, ok


def _emit_cobordism_csv(report, stream):
    writer = csv.writer(stream)
    writer.writerow(["p\\q"] + [str(q) for q in report["q_values"]])
    for p, row in zip(report["p_values"], report["cells"]):
        writer.writerow([str(p)] + row)


# -- verify-all -------------------------------------------------------------------


def _cmd_verify_all(args):
    start = time.monotonic()
    checks = []
    for fn in verify_mod.ALL_CHECKS:
        t = time.monotonic()
        result = fn(seed=args.seed) \
            if fn is verify_mod.check_landweber_suite else fn()
        if args.timings:
            result["timing_ms"] = int((time.monotonic() - t) * 1000)
        checks.append(result)
    elapsed = time.monotonic() - start
    within_budget = elapsed <= args.budget
    ok = all(c["pass"] for c in checks) and within_budget
    report = _report("verify-all", seed=args.seed, budget_seconds=args.budget,
                     within_budget=within_budget, checks=checks)
    report["pass"] = ok
    if args.timings:
        report["timing_ms"] = int(elapsed * 1000)
    return report, ok


# -- driver -----------------------------------------------------------------------


class _Late(ValueError):
    """A number refused once the whole command line is read, so that a
    later -h still prints help, as argparse does."""


def _seconds(text):
    """A budget: a finite number of seconds above zero."""
    if not 0 < float(text) < math.inf:
        raise _Late(text)
    return float(text)


# Per command: handler, help and options.  An option's key is its name and a
# metavar per value it takes; its entry is the kind reading each value (a
# tuple of accepted words, bool for a flag) and its default or REQUIRED.
COMMANDS = {
    "grass": (_cmd_grass, "Schur basis and checks for one (n, d)", {
        "--n N": (int, REQUIRED), "--d D": (int, REQUIRED),
        "--verify": (("all", "complex", "identities", "pairing", "products"),
                     None)}),
    "fgl": (_cmd_fgl, "formal group law coefficient tables", {
        "--law": ((*LAWS, "universal-q"), REQUIRED),
        "--N N": (int, 8), "--check": (bool, False),
        "--p-series P": (int, None), "--landweber P H": (int, None)}),
    "landweber": (_cmd_landweber, "regular-sequence verdicts", {
        "--module FILE": (str, None), "--law LAW": (str, next(iter(LAWS))),
        "--primes P,..": (str, "2,3,5"), "--height H": (int, 3),
        "--window LO:HI": (str, "-10:10")}),
    "oriented": (_cmd_oriented, "Schur-class modules with any coefficients", {
        "--coeff FILE": (str, None), "--n N": (int, REQUIRED),
        "--d D": (int, REQUIRED), "--thom": (bool, False)}),
    "hopf": (_cmd_hopf, "Hopf algebroid reports", {
        "--N N": (int, REQUIRED), "--induced FILE": (str, None)}),
    "cobordism": (_cmd_cobordism, "rational dimension tables", {
        "--field FIELD": (str, REQUIRED),
        "--window PLO:PHI,QLO:QHI": (str, "-10:10,-5:5"),
        "--verify": (bool, False), "--format": (("json", "csv"), "json")}),
    "verify-all": (_cmd_verify_all, "run the whole check suite", {
        "--seed SEED": (int, 0), "--budget SECONDS": (_seconds, 300.0),
        "--timings": (bool, False)}),
}


def _fail(usage, message):
    sys.stderr.write(f"{usage}\ncobalt: error: {message}\n")
    raise SystemExit(2)


def _match(usage, token, names):
    """The option a token names (or None) and the value after its '='."""
    name, eq, value = token.partition("=")
    hits = [n for n in names if n == name] or \
        [n for n in names if n.startswith(name)]
    if len(hits) > 1:
        _fail(usage, f"{token!r} names {' or '.join(hits)}")
    return (hits or [None])[0], (value if eq else None)


def parse_args(argv):
    """The command and its option values, read from argv against COMMANDS.

    Options are `--opt value` or `--opt=value`, named in full or by a
    unique prefix; the last of a repeated option wins.  The tokens after
    an option that takes values are its values, even when they start with
    "-".  Bad usage prints `cobalt: error: ...` and raises SystemExit(2).
    """
    usage = f"usage: cobalt [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    argv, unknown = list(argv), []
    while argv and argv[0] not in COMMANDS:
        name, _ = _match(usage, token := argv.pop(0),
                         ["-h", "--help", "--version"])
        if name is None:
            unknown.append(token)
            continue
        print(f"cobalt {__version__}" if name == "--version" else "\n".join(
            [usage, "", "Exact Schur calculus, formal group laws, and "
             "Landweber regularity reports.", ""] +
            [f"  {c:<12}{about}" for c, (_, about, _) in COMMANDS.items()]))
        raise SystemExit(0)
    if not argv:
        _fail(usage, f"choose a command, not {unknown}")
    command = argv.pop(0)
    _, about, table = COMMANDS[command]
    options, values, shown, rows, late = {}, {}, [], [], []
    for key, (kind, default) in table.items():
        name = key.split()[0]
        if isinstance(kind, tuple):
            key = f"{name} {{{','.join(kind)}}}"
            kind = {word: word for word in kind}.__getitem__
        options[name], values[name] = (key.count(" "), kind), default
        shown.append(key if default is REQUIRED else f"[{key}]")
        rows.append(f"  {shown[-1]}" if default in (None, REQUIRED) or
                    kind is bool else f"  {shown[-1]:<30}(default {default})")
    usage = " ".join([f"usage: cobalt {command} [-h]", *shown])
    while argv:
        name, value = _match(usage, token := argv.pop(0),
                             [*options, "-h", "--help"])
        if name is None:
            unknown.append(token)
            continue
        if name in ("-h", "--help"):
            print("\n".join([usage, "", about, ""] + rows))
            raise SystemExit(0)
        arity, read = options[name]
        tokens = argv[:arity] if value is None else [value]
        del argv[:len(tokens) if value is None else 0]
        refusal = f"{name} takes {arity} valid value(s), not {tokens}"
        try:
            given = [read(token) for token in tokens]
        except _Late:
            late.append(refusal)
            continue
        except (KeyError, ValueError):
            given = []
        if len(given) != arity:
            _fail(usage, refusal)
        values[name] = given[0] if arity == 1 else given if arity else True
    if late:
        _fail(usage, late[0])
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing or unknown:
        _fail(usage, f"missing {', '.join(missing)}" if missing else
              f"unrecognized arguments: {' '.join(unknown)}")
    return types.SimpleNamespace(command=command, **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, ok = COMMANDS[args.command][0](args)
    except CobaltError as exc:
        print(f"cobalt: error: {exc}", file=sys.stderr)
        return 2
    if args.command == "cobordism" and args.format == "csv":
        _emit_cobordism_csv(report, sys.stdout)
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
