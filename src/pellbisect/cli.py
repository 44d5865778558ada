"""Command-line front end.

Subcommands: context, xi, spectrum, solve, decompose, rational, bisect,
triples, table, figure, oracle.  Output is deterministic JSON, CSV or text;
exit codes are 0 for success, 1 for usage errors, 2 for domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction

import pellbisect

from .arith import primes_upto, rational
from .quadfield import render_rat, render_signed_power

DEFAULT_D_LIST = (2, 5, 10, 13, 17, 26, 29, 34)
DEFAULT_P_MAX = 97


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")


def _d_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D,D,..., got {text!r}")


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _xi_doc(entry: pellbisect.XiEntry, ascii_mode: bool) -> dict:
    return {
        "p": entry.p,
        "l": entry.l,
        "x": entry.x,
        "y": entry.y,
        "norm": str(entry.norm_sign * entry.p**entry.l),
        "elem": pellbisect.render(entry.elem, ascii_mode),
    }


def _cmd_context(args) -> dict:
    ctx = pellbisect.make_context(args.d)
    return {
        "d": ctx.d,
        "disc": ctx.disc,
        "eta": {"a": render_rat(ctx.eta.a), "b": render_rat(ctx.eta.b)},
        "norm_eta": ctx.norm_eta,
        "eps": {"f1": ctx.f1, "g1": ctx.g1},
        "h": ctx.h,
        "neg_pell_integral": ctx.neg_pell_integral,
        "neg_pell_rational": ctx.neg_pell_rational,
    }


def _cmd_xi(args) -> dict:
    entry = pellbisect.xi(pellbisect.make_context(args.d), args.p)
    if entry is None:
        return {"d": args.d, "p": args.p, "in_s": False}
    return {"d": args.d, "in_s": True, **_xi_doc(entry, args.ascii)}


def _cmd_spectrum(args) -> list:
    return [_xi_doc(e, args.ascii) for e in pellbisect.spectrum(pellbisect.make_context(args.d), args.pmax).entries]


def run_table(
    *,
    d_list: tuple[int, ...] = DEFAULT_D_LIST,
    p_max: int = DEFAULT_P_MAX,
    format: str = "text",
    ascii_mode: bool = False,
) -> str:
    """Render the reference table: one column per d, rows h, eta, N(eta) and
    xi_p, N(xi_p) for every prime p <= p_max; byte-identical across runs."""
    columns = []
    for d in d_list:
        ctx = pellbisect.make_context(d)
        spc = pellbisect.spectrum(ctx, p_max)
        columns.append((d, ctx, {e.p: e for e in spc.entries}))
    primes = primes_upto(p_max)

    def xi_cell(col, p: int) -> tuple[str, str]:
        entry = col[2].get(p)
        if entry is None:
            return "", ""
        return (
            pellbisect.render(entry.elem, ascii_mode),
            render_signed_power(entry.norm_sign, p, entry.l, ascii_mode),
        )

    rows: list[tuple[str, list[str]]] = [
        ("d", [str(d) for d, _, _ in columns]),
        ("h", [str(ctx.h) for _, ctx, _ in columns]),
        ("eta", [pellbisect.render(ctx.eta, ascii_mode) for _, ctx, _ in columns]),
        ("N(eta)", [str(ctx.norm_eta) for _, ctx, _ in columns]),
    ]
    for p in primes:
        cells = [xi_cell(col, p) for col in columns]
        rows.append((f"xi_{p}", [c[0] for c in cells]))
        rows.append((f"N(xi_{p})", [c[1] for c in cells]))

    if format == "csv":
        return "".join(f"{label},{','.join(cells)}\n" for label, cells in rows)
    if format == "json":
        doc = []
        for i, (d, ctx, entries) in enumerate(columns):
            doc.append(
                {
                    "d": d,
                    "h": ctx.h,
                    "eta": pellbisect.render(ctx.eta, ascii_mode),
                    "norm_eta": ctx.norm_eta,
                    "xi": [_xi_doc(entries[p], ascii_mode) for p in primes if p in entries],
                }
            )
        return _dump({"p_max": p_max, "columns": doc})
    widths = [
        max(len(label) for label, _ in rows)
        if i == 0
        else max(len(r[1][i - 1]) for r in rows)
        for i in range(len(columns) + 1)
    ]
    lines = []
    for label, cells in rows:
        parts = [label.ljust(widths[0])]
        parts += [cell.ljust(widths[i + 1]) for i, cell in enumerate(cells)]
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> str:
    return run_table(d_list=args.d_list, p_max=args.pmax, format=args.format, ascii_mode=args.ascii)


_FIGURE_COLORS = ("#1f77b4", "#2ca02c", "#d62728", "#9467bd")


def render_figure(a: Fraction, b: Fraction) -> str:
    """SVG with the two lines and both bisectors through the origin on a
    fixed 512x512 viewport; raises NoRationalBisector when c is irrational."""
    c_plus, c_minus = pellbisect.bisect(a, b)
    slopes = [("a", a), ("b", b), ("c+", c_plus), ("c-", c_minus)]
    half = 238.0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="512" height="512" '
        'viewBox="0 0 512 512">',
        '<rect x="0" y="0" width="512" height="512" fill="#ffffff"/>',
        '<line x1="18" y1="256" x2="494" y2="256" stroke="#cccccc" stroke-width="1"/>',
        '<line x1="256" y1="18" x2="256" y2="494" stroke="#cccccc" stroke-width="1"/>',
    ]
    for i, (_, slope) in enumerate(slopes):
        s = float(slope)
        if abs(s) <= 1:
            dx, dy = half, half * s
        else:
            dx, dy = half / abs(s), half * (1 if s > 0 else -1)
        x1, y1 = 256 - dx, 256 + dy
        x2, y2 = 256 + dx, 256 - dy
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{_FIGURE_COLORS[i]}" stroke-width="2"/>'
        )
    for i, (name, slope) in enumerate(slopes):
        parts.append(
            f'<text x="20" y="{24 + 18 * i}" font-family="monospace" font-size="14" '
            f'fill="{_FIGURE_COLORS[i]}">{name} = {render_rat(rational(slope))}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _build_parser() -> _Parser:
    """The one table of subcommands: each registers its handler as `run`,
    which returns a JSON document or, for table and figure, finished text."""
    # the common flags, accepted before and after every subcommand and sweep: SUPPRESS keeps a later
    # parser from clobbering a value given earlier, and main's namespace holds their defaults
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default=argparse.SUPPRESS)
    common.add_argument("--ascii", action="store_true", default=argparse.SUPPRESS, help="ASCII-only output")
    common.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS, help="write output to a file")
    parser = _Parser(prog="pellbisect", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_parser(name: str, run, subparsers=sub, **kwargs):
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=run)
        return p

    p = add_parser("context", _cmd_context, help="per-d invariants as JSON")
    p.add_argument("--d", type=int, required=True)

    p = add_parser("xi", _cmd_xi, help="fundamental prime-power element")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)

    p = add_parser("spectrum", _cmd_spectrum, help="all spectrum entries up to a bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--pmax", type=int, default=DEFAULT_P_MAX)

    p = add_parser("solve", _cmd_solve, help="strictly primitive solutions of |x^2-dy^2| = z")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--strict", action="store_true",
                   help="no effect: solve always returns strictly primitive solutions; "
                   "kept for compatibility")
    p.add_argument("--n-range", type=_int_range, default=range(-2, 3))

    p = add_parser("decompose", _cmd_decompose, help="factor a solution into canonical form")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)

    p = add_parser("rational", _cmd_rational, help="rational points on x^2-dy^2 = +-1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sign", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--max-terms", type=int, default=2)
    p.add_argument("--n-range", type=_int_range, default=range(-2, 3))
    p.add_argument("--pmax", type=int, default=31)

    p = add_parser("bisect", _cmd_bisect, help="bisector slopes of two rational slopes")
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)

    p = add_parser("triples", _cmd_triples, help="enumerate bisector triples")
    p.add_argument("--mode", choices=("case1", "case2", "integral"), required=True)
    p.add_argument("--range", type=int, default=3, dest="box")
    p.add_argument("--d", type=int)

    p = add_parser("table", _cmd_table, help="reference table of units and xi elements")
    p.add_argument("--d-list", type=_d_list, default=DEFAULT_D_LIST)
    p.add_argument("--pmax", type=int, default=DEFAULT_P_MAX)

    p = add_parser("figure", lambda args: render_figure(args.a, args.b),
                   help="SVG of the two lines and their bisectors")
    p.add_argument("--a", type=rational, required=True)
    p.add_argument("--b", type=rational, required=True)

    p = add_parser("oracle", None, help="brute-force reference sweeps")  # run set per sweep
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = add_parser("solutions", _cmd_oracle_solutions, osub)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--z", type=int, required=True)
    q.add_argument("--ymax", type=int, default=1000)
    q = add_parser("xi", _cmd_oracle_xi, osub)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--lmax", type=int, default=6)
    q.add_argument("--ymax", type=int, default=1000)
    q = add_parser("rational", _cmd_oracle_rational, osub)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--r", type=int, choices=(0, 1), required=True)
    q.add_argument("--zmax", type=int, default=20)
    q.add_argument("--ymax", type=int, default=1000)
    q = add_parser("tangent", _cmd_oracle_tangent, osub)
    q.add_argument("--a", type=rational, required=True)
    q.add_argument("--b", type=rational, required=True)
    q.add_argument("--c", type=rational, required=True)
    return parser


def _cmd_solve(args) -> dict:
    verdict, solutions = pellbisect.solve(pellbisect.make_context(args.d), args.z, args.n_range)
    return {
        "d": args.d,
        "z": args.z,
        "exists": verdict.exists,
        "case_tags": {str(p): t for p, t in sorted(verdict.case_tags.items())},
        "solutions": [
            {"x": x, "y": y, "norm": x * x - args.d * y * y, "representation": rep.to_json()}
            for x, y, rep in solutions
        ],
    }


def _cmd_decompose(args) -> dict:
    rep = pellbisect.decompose(pellbisect.make_context(args.d), args.x, args.y)
    kind = "strict" if rep.scale == 1 else "square"  # a square answer has scale gcd(x, y) > 1
    return {"d": args.d, "x": args.x, "y": args.y, "kind": kind, "representation": rep.to_json()}


def _cmd_rational(args) -> list:
    ctx = pellbisect.make_context(args.d)
    return [
        {"x": render_rat(pt.x), "y": render_rat(pt.y), "r": pt.r, "rep": rep.to_json()}
        for pt, rep in pellbisect.rational_family(ctx, args.sign, args.max_terms, args.n_range, args.pmax)
    ]


def _cmd_bisect(args) -> dict:
    pair = pellbisect.classify_pair(args.a, args.b)  # the one factoring of a^2+1 and b^2+1
    c_plus, c_minus = pellbisect.from_pell_points(args.a, pair.a2, args.b, pair.b2, pair.d)
    return {
        "a": render_rat(args.a),
        "b": render_rat(args.b),
        "c_plus": render_rat(c_plus),
        "c_minus": render_rat(c_minus),
        "case": "I" if pair.d == 1 else "II",
        "d": pair.d,
    }


def _triple_doc(t: pellbisect.BisectorTriple, source: dict) -> dict:
    return {
        "a": render_rat(t.a),
        "b": render_rat(t.b),
        "c": render_rat(t.c),
        "source": source,
    }


def _cmd_triples(args) -> list:
    docs = []
    if args.mode == "case1":
        for l in range(1, args.box + 1):
            for m in range(l + 1, args.box + 1):
                for n in range(1, args.box + 1):
                    if l * m == n * n:
                        continue
                    for t in pellbisect.case1_generate(l, m, n):
                        docs.append(_triple_doc(t, {"l": l, "m": m, "n": n}))
    elif args.mode == "case2":
        if args.d is None:
            raise ValueError("--d is required for case2")
        ctx = pellbisect.make_context(args.d)
        alphas = pellbisect.case2_alphas(ctx, args.box)
        for i, alpha in enumerate(alphas):
            for beta in alphas[i + 1 :]:
                source = {"alpha": pellbisect.render(alpha, args.ascii), "beta": pellbisect.render(beta, args.ascii)}
                docs += [_triple_doc(t, source) for t in pellbisect.case2_generate(ctx, alpha, beta)]
    else:
        if args.d is None:
            raise ValueError("--d is required for integral mode")
        ctx = pellbisect.make_context(args.d)
        for m in range(1, args.box + 1):
            for n in range(1, args.box + 1):
                t = pellbisect.integral_generate(ctx, m, n)
                docs.append(_triple_doc(t, {"family": "d", "m": m, "n": n}))
        if args.d == 2:
            for n in range(1, args.box + 1):
                t = pellbisect.integral_generate2(n)
                docs.append(_triple_doc(t, {"family": "2", "n": n}))
    return docs


def _cmd_oracle_solutions(args) -> list:
    return [asdict(h) for h in pellbisect.brute_solutions(args.d, args.z, pellbisect.SearchBox(y_bound=args.ymax))]


def _cmd_oracle_xi(args) -> dict:
    hit = pellbisect.brute_xi(args.d, args.p, args.lmax, pellbisect.SearchBox(y_bound=args.ymax))
    if hit is None:
        return {"d": args.d, "p": args.p, "found": False}
    l, x, y, sign = hit
    return {"d": args.d, "p": args.p, "found": True, "l": l, "x": x, "y": y, "sign": sign}


def _cmd_oracle_rational(args) -> list:
    box = pellbisect.SearchBox(y_bound=args.ymax, denominator_bound=args.zmax)
    pts = pellbisect.brute_rational_pell(args.d, args.r, box)
    return [{"x": render_rat(x), "y": render_rat(y)} for x, y in pts]


def _cmd_oracle_tangent(args) -> dict:
    return {"bisects": pellbisect.tangent_bisector_check(args.a, args.b, args.c)}


def _merge_dash_values(argv: list[str]) -> list[str]:
    """Join option values that start with '-' (ranges like -2..2, rationals
    like -7/9) onto their flag so argparse does not read them as options."""
    merged: list[str] = []
    for tok in argv:
        if merged and merged[-1] in ("--n-range", "--a", "--b", "--c") and tok.startswith("-"):
            merged[-1] += f"={tok}"
        else:
            merged.append(tok)
    return merged


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # print units of any size
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    args = parser.parse_args(_merge_dash_values(list(sys.argv[1:] if argv is None else argv)),
                             argparse.Namespace(format="json", ascii=False, out=None))
    try:
        out = args.run(args)
    except ValueError as exc:  # NotSquareFreeError and the bisector errors included
        sys.stdout.write(_dump({"error": type(exc).__name__, "message": str(exc)}))
        return 2
    try:
        _emit(out if isinstance(out, str) else _dump(out), args.out)
    except OSError as exc:
        parser.exit(1, f"{parser.prog}: error: cannot write {args.out}: {exc.strerror}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
