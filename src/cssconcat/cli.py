"""Command-line front end.

Subcommands: construct, concat, mindist, decode, simulate, enlarge, bounds,
field.  Exit codes: 2 for unparsable input, 3 for violated invariants or
preconditions, 4 when an enumeration or field-order cap is exceeded; with
--debug, an exception that would exit 3 is re-raised instead.  Every
randomized subcommand requires --seed and is deterministic given it.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import bounds as bnd
from . import fileio
from .bounds import TMAX_CAP
from .channel_sim import AdditiveChannel, mc_error_rate
from .codes import ENUM_CAP, LinearCode, min_weight_excluding
from .concat import concatenate, verify_duality
from .decode import DecoderContext, two_stage_decode, success_oracle
from .enlarge import enlargement_distance_floor, steane_enlarge, symplectic_min_distance
from .errors import BelowRateFloor, DomainError, TooLarge
from .matrix import as_codes
from .outer_grs import nested_grs_pair

EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_TOO_LARGE = 4
SEED_LIMIT = 1 << 64  # trial substreams are keyed by (trial << 64) + seed
GRID_CAP = 100_000  # bounds --grid: most points (one exact Fraction each)
# bounds families that are bound_general at fixed inner parameters:
# (parameter names in reading order, curve-name template, bound)
_GENERAL_FAMILIES = {
    "flx": (("q",), "flx_q{q}", bnd.bound_flx),
    "clx": (("t", "q"), "clx_t{t}_q{q}", bnd.bound_clx),
    "main": (("t", "q"), "main_t{t}_q{q}", bnd.bound_main),
    "general": (("n", "k", "d1", "d2", "q"), "general_{n}_{k}_{d1}_{d2}_q{q}", bnd.bound_general),
}


class _ParseError(Exception):
    pass


def _load(fn, *args):
    """Run a loader; a file that cannot be read or parsed (OSError,
    DomainError) is a parse error (exit 2).  Other errors, such as a
    well-formed file whose content breaks an invariant, pass through."""
    try:
        return fn(*args)
    except (OSError, DomainError) as exc:
        raise _ParseError(str(exc)) from exc


def _number(parse, text):
    """``parse(text)`` (int, float or Fraction), a parse error if it fails;
    a zero denominator such as ``1/0`` fails too."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseError(str(exc)) from exc


def _build_concat(cfg_path):
    """The concatenated pair of a config file, read through :func:`_load`;
    the outer pair and the concatenation are built outside it."""
    inner, ext, N, K1, K2 = _load(fileio.read_concat_config, cfg_path)
    D1, D2 = nested_grs_pair(ext, N, K1, K2)
    return concatenate(inner, (D1, D2), ext)


# -- subcommands -------------------------------------------------------------

def cmd_field(args, out):
    # both specs are parsed before anything is printed: a bad --ext prints nothing
    f = _load(fileio.parse, args.spec, fileio.field_from_tokens)
    ext = (_load(fileio.parse, args.ext, lambda toks: fileio.extension_from_tokens(f, toks))
           if args.ext else None)
    print(f"field GF({f.q}) = GF({f.p}^{f.e}), modulus {list(f.modulus)}", file=out)
    if ext:
        print(f"extension GF({ext.Q}) degree {ext.k}, primitive poly {list(ext.f)}",
              file=out)
        print("companion matrix:", file=out)
        print(fileio.matrix_to_text(ext.companion_matrix()), end="", file=out)
    return 0


def cmd_construct(args, out):
    from .codes import CssPair
    C1 = _load(fileio.read_code, args.c1)
    C2 = _load(fileio.read_code, args.c2)
    g1 = None
    if args.g1:
        g1 = _load(fileio.read_vector, args.g1)
        if not C1.n or g1.size % C1.n:
            raise _ParseError(f"g1 must have a multiple of {C1.n} entries, not {g1.size}")
        g1 = g1.reshape(-1, C1.n)
    pair = CssPair.build(C1, C2, g1)
    if args.out:
        fileio.write_pair(args.out, pair)
    print(f"[[{pair.n},{pair.k}]] over GF({pair.field.q})", file=out)
    return 0


def cmd_concat(args, out):
    cp = _build_concat(args.config)
    print(f"[[{cp.block_length},{cp.logical_dims}]] over GF({cp.inner.field.q}) "
          f"(inner [[{cp.n},{cp.k}]], outer [{cp.N},{cp.D1.K}]/[{cp.N},{cp.D2.K}])",
          file=out)
    if args.verify:
        ok = verify_duality(cp)
        print(f"duality: {'ok' if ok else 'VIOLATED'}", file=out)
        if not ok:
            return EXIT_INVARIANT
    if args.out:
        fileio.write_code(args.out + ".l1.txt", cp.L1)
        fileio.write_code(args.out + ".l2.txt", cp.L2)
        for side in (1, 2):
            with open(f"{args.out}.ho{side}.txt", "w") as fh:
                fh.write(fileio.matrix_to_text(cp.parity_check(side)))
    return 0


def cmd_mindist(args, out):
    cap = args.cap
    if args.config is not None:
        cp = _build_concat(args.config)
        d = min_weight_excluding(cp.L1, cp.L2.dual(), cap)
        print(f"w(L1 \\ dual L2) = {d}", file=out)
        d1 = min_weight_excluding(cp.inner.C1, cp.inner.C2.dual(), cap)
        # dual(D2) is the row space of D2.H, which has no rows when K2 = N
        dual_D2 = LinearCode._full_rank(cp.ext.as_field(), cp.Hout2)
        Dq = min_weight_excluding(cp.D1.as_linear_code(), dual_D2, cap)
        print(f"product law: inner {d1} x outer {Dq} = {d1 * Dq} "
              f"{'== observed' if d1 * Dq == d else '!= observed'}", file=out)
        return 0
    pair = _load(fileio.read_pair, args.pair)
    d1 = min_weight_excluding(pair.C1, pair.C2.dual(), cap)
    d2 = min_weight_excluding(pair.C2, pair.C1.dual(), cap)
    print(f"w(C1 \\ dual C2) = {d1}", file=out)
    print(f"w(C2 \\ dual C1) = {d2}", file=out)
    print(f"pair distance = {min(d1, d2)}", file=out)
    return 0


def cmd_decode(args, out):
    cp = _build_concat(args.config)
    ctx = DecoderContext(cp, side=args.side, cap=args.cap)
    is_error = args.error is not None
    v = _load(fileio.read_vector, args.error if is_error else args.syndrome)
    v = _load(as_codes, ctx.field, v, "vector entries")
    length = ctx.N * ctx.n if is_error else ctx.syndrome_len
    if v.size != length:
        raise _ParseError(f"vector must have {length} entries, not {v.size}")
    est, ok = two_stage_decode(ctx, ctx.full_syndrome(v) if is_error else v)
    line = f"outer_ok {int(ok)}"
    if is_error:
        line += f" success {int(success_oracle(ctx, v, est))}"
    print(line, file=out)
    if args.out:
        fileio.write_vector(args.out, est)
    else:
        print(" ".join(str(int(x)) for x in est), file=out)
    return 0


def cmd_simulate(args, out):
    probs = [_number(float, x) for x in args.channel.split(",")]
    cp = _build_concat(args.pair)
    ctx = DecoderContext(cp, side=args.side, cap=args.cap)
    ch = AdditiveChannel(ctx.field, probs)
    res = mc_error_rate(ctx, ch, args.trials, args.seed)
    lines = ["channel,trials,failures,estimate,ci_lo,ci_hi",
             f"\"{args.channel}\",{res.trials},{res.failures},"
             f"{res.estimate:.10g},{res.ci_lo:.10g},{res.ci_hi:.10g}"]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="", file=out)
    return 0


def cmd_enlarge(args, out):
    C = _load(fileio.read_code, args.c)
    Cp = _load(fileio.read_code, args.cprime)
    enl = steane_enlarge(C, Cp)
    print(f"[[{enl.length},{enl.logical_dims}]] over GF({enl.field.q})", file=out)
    d = min_weight_excluding(C, Cp.dual(), args.cap)
    dp = min_weight_excluding(Cp, Cp.dual(), args.cap)
    floor = enlargement_distance_floor(d, dp, enl.field.q)
    print(f"floor min{{{d}, ceil((q+1)*{dp}/q)}} = {floor}", file=out)
    if args.brute:
        ds = symplectic_min_distance(enl.field, enl.G, cap=args.cap)
        print(f"symplectic distance = {ds} ({'ok' if ds >= floor else 'VIOLATED'})",
              file=out)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(fileio.matrix_to_text(enl.G))
    return 0


def _parse_params(s):
    out = {}
    if s:
        for item in s.split(","):
            k, _, v = item.partition("=")
            if not v:
                raise _ParseError(f"bad parameter {item!r}")
            out[k.strip()] = v.strip()
    return out


def _parse_grid(s):
    try:
        lo, hi, step = (Fraction(x) for x in s.split(":"))
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseError(f"bad grid {s!r}") from exc
    if step <= 0 or hi < lo:
        raise _ParseError("grid must be lo:hi:step with step > 0")
    count = (hi - lo) // step + 1
    if count > GRID_CAP:
        raise TooLarge(f"grid has more than {GRID_CAP} points")
    return [lo + i * step for i in range(count)]


def cmd_bounds(args, out):
    params = _parse_params(args.params)
    grid = _parse_grid(args.grid)

    def ival(name, default=None):
        if name not in params:
            if default is None:
                raise _ParseError(f"missing parameter {name}")
            return default
        return _number(int, params[name])

    fam = args.family
    if fam == "gv":
        curve = bnd.gv_curves(params.get("kind", "css_binary"), [float(x) for x in grid])
    elif fam in _GENERAL_FAMILIES:
        names, template, bound = _GENERAL_FAMILIES[fam]
        values = [ival(name) for name in names]
        curve = bnd.BoundCurve(template.format(**dict(zip(names, values))), list(grid),
                               [bound(*values, r) for r in grid])
    elif fam == "enlarged":
        q, n, k, d = ival("q"), ival("n"), ival("k"), ival("d")
        gh = _number(Fraction, params.get("gamma_hat", "0"))
        vals = []
        for r in grid:
            try:
                vals.append(bnd.bound_enlarged(q, n, k, d, gh, r))
            except BelowRateFloor:
                vals.append(Fraction(0))
        curve = bnd.BoundCurve(f"enlarged_{n}_{k}_d{d}_q{q}", list(grid), vals)
    elif fam == "envelope":
        q = ival("q")
        tmax = ival("tmax", 20)
        if tmax < 2:
            raise _ParseError("tmax must be at least 2")
        if tmax > TMAX_CAP:
            raise TooLarge(f"tmax {tmax} exceeds cap {TMAX_CAP}")
        curve = bnd.envelope_rt(q, list(grid), range(2, tmax + 1))
    else:
        raise _ParseError(f"unknown family {fam!r}")
    if args.out:
        bnd.emit_csv([curve], args.out)
    else:
        for x, v in zip(curve.grid, curve.clamped):
            print(f"{float(x):.10g},{v:.10g}", file=out)
    return 0


# -- argument parsing --------------------------------------------------------

def _make_parser():
    p = argparse.ArgumentParser(prog="cssconcat",
                                description="CSS code pairs: construction, "
                                            "concatenation, decoding, bounds.")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument("--out", default=None, help="output path or prefix")
    p.add_argument("--cap", type=int, default=ENUM_CAP, help="enumeration cap")
    p.add_argument("--debug", action="store_true",
                   help="re-raise violated invariants with their traceback "
                        "instead of exiting 3")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("field", help="describe a field / extension spec")
    s.add_argument("--spec", required=True, help="'p e m0 ... me'")
    s.add_argument("--ext", default=None, help="'k f0 ... fk'")

    s = sub.add_parser("construct", help="build and save a CSS pair")
    s.add_argument("--c1", required=True)
    s.add_argument("--c2", required=True)
    s.add_argument("--g1", default=None)

    s = sub.add_parser("concat", help="concatenate per a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--verify", action="store_true")

    s = sub.add_parser("mindist", help="quotient minimum distances")
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--pair", default=None)
    g.add_argument("--config", default=None)

    s = sub.add_parser("decode", help="two-stage decode a syndrome or error")
    s.add_argument("--config", required=True)
    s.add_argument("--side", type=int, default=1, choices=(1, 2))
    g = s.add_mutually_exclusive_group(required=True)
    g.add_argument("--error", default=None)
    g.add_argument("--syndrome", default=None)

    s = sub.add_parser("simulate", help="Monte-Carlo failure-rate estimation")
    s.add_argument("--pair", required=True, help="concat config file")
    s.add_argument("--side", type=int, default=1, choices=(1, 2))
    s.add_argument("--channel", required=True, help="p0,p1,...")
    s.add_argument("--trials", type=int, required=True)

    s = sub.add_parser("enlarge", help="enlarge C using Cprime")
    s.add_argument("--c", required=True)
    s.add_argument("--cprime", required=True)
    s.add_argument("--brute", action="store_true",
                   help="also brute-force the symplectic distance")

    s = sub.add_parser("bounds", help="emit bound curves as CSV")
    s.add_argument("--family", required=True,
                   choices=("general", "main", "clx", "flx", "enlarged",
                            "gv", "envelope"))
    s.add_argument("--params", default="")
    s.add_argument("--grid", required=True, help="lo:hi:step")
    return p


_DISPATCH = {
    "field": cmd_field,
    "construct": cmd_construct,
    "concat": cmd_concat,
    "mindist": cmd_mindist,
    "decode": cmd_decode,
    "simulate": cmd_simulate,
    "enlarge": cmd_enlarge,
    "bounds": cmd_bounds,
}


def main(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit 2, --help 0
        return exc.code
    if args.cmd == "simulate" and args.seed is None:
        print("error: --seed is required for simulate", file=sys.stderr)
        return EXIT_PARSE
    if args.seed is not None and not 0 <= args.seed < SEED_LIMIT:
        print("error: --seed must lie in [0, 2**64)", file=sys.stderr)
        return EXIT_PARSE
    try:
        return _DISPATCH[args.cmd](args, out)
    except _ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except Exception as exc:
        if args.debug:
            raise
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
