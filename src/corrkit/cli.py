"""Command-line surface.

Subcommands: gen, corr, cstar, moments, energy, metric, dist, verify,
sweep.  Reports are JSON (schema "corrkit/1") or CSV with a header row;
float fields use repr, so fixed seeds give byte-identical output.  The
environment variable CORRKIT_ORACLE_BUDGET (default 10^8) sets the one
work budget checked before a costly job starts: brute-force tuple
visits, the |A|^2 pair sums of wide additive energy, and N * trials of
metric and random_correlation_stats.

Exit codes: 0 success, 1 failed verify checks, 2 bad parameters,
3 malformed input file, 4 work budget exceeded, 5 internal consistency
check failed.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import re
import sys
from dataclasses import asdict

from . import arithmetic, averaged, correlations, distribution, intervalstats, seqgen
from .errors import BudgetError, ConsistencyError, FormatError, ParameterError
from .io import read_integers, read_points, write_point_lines, write_points
from .verify import DEFAULT_SEED, run_verify

SCHEMA = "corrkit/1"

# r2..r9 / r2star..: correlation counts; i2../i2star..: window-count
# moments; c2star: averaged pair statistic; bell2..: the constant
# Poisson-moment prediction
_SWEEP_RE = re.compile(r"^(r|i|bell|c)([2-9])(star)?$")


def _number(text: str, kind, what: str):
    """kind(text) (float or int), a ParameterError if text is not one."""
    try:
        return kind(text)
    except ValueError:
        raise ParameterError(f"{what} {text!r} is not a number") from None


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    bits = text.split(":")
    if len(bits) != 2:
        raise ParameterError(f"{what} {text!r} must look like a:b")
    return _number(bits[0], float, what), _number(bits[1], float, what)


def _scales_for(args) -> tuple[float, ...]:
    """--s as k-1 scales; one value stands for k-1 equal ones."""
    vals = [_number(x, float, "scale") for x in args.s.split(",") if x.strip()]
    return correlations._as_scales(vals[0] if len(vals) == 1 else vals, args.k)


def _csv_text(header, rows) -> str:
    buf = _io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _write(args, text: str) -> None:
    """Write a report to --out, or to stdout when it is not given."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    _write(args, json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    integers = tuple(read_integers(args.integers)) if args.integers else None
    spec = seqgen.GeneratorSpec(
        kind=args.kind, alpha=args.alpha, degree=args.degree,
        seed=args.seed, integers=integers,
    )
    seq = seqgen.generate(spec, args.n)
    if args.out:
        write_points(args.out, seq)
    else:
        write_point_lines(sys.stdout, seq)
    return 0


def _report_payload(kind: str, rep: correlations.CorrelationReport) -> dict:
    params = dict(rep.parameters)
    for key in ("scales", "boxes"):
        if key in params:
            params[key] = [list(v) if isinstance(v, tuple) else v for v in params[key]]
    return {
        "schema": SCHEMA,
        "kind": kind,
        "statistic": rep.statistic_name,
        "k": rep.k,
        "n": rep.n,
        "parameters": params,
        "raw_count": rep.raw_count,
        "value": rep.value,
    }


def _cmd_corr(args) -> int:
    seq = read_points(args.input)
    if (args.s is None) == (args.box is None):
        raise ParameterError("give exactly one of --s and --box")
    if args.box is not None:
        if args.star:
            raise ParameterError("--star applies to scale windows, not the box form")
        boxes = [_parse_pair(part, "box") for part in args.box.split(",") if part.strip()]
        rep = correlations.r_k_box(seq, boxes, args.k)
    else:
        scales = _scales_for(args)
        rep = (correlations.r_k_star if args.star else correlations.r_k_distinct)(seq, scales)
    if args.format == "csv":
        _write(args, _csv_text(["statistic", "k", "N", "raw_count", "value"],
                               [[rep.statistic_name, rep.k, rep.n, rep.raw_count, repr(rep.value)]]))
    else:
        _emit(args, _report_payload("corr", rep))
    return 0


def _cmd_cstar(args) -> int:
    seq = read_points(args.input)
    scales = _scales_for(args)
    if args.interval:
        lo, hi = _parse_pair(args.interval, "interval")
        if len(set(scales)) != 1:
            raise ParameterError("localized average needs equal scales")
        value = averaged.c_k_star_local(seq, scales[0], args.k, (lo, hi))
        extra = {"interval": [lo, hi]}
    else:
        value = averaged.c_k_star(seq, scales)
        extra = {}
    payload = {
        "schema": SCHEMA, "kind": "cstar", "k": args.k, "n": len(seq),
        "scales": list(scales), "value": value, **extra,
    }
    _emit(args, payload)
    return 0


def _cmd_moments(args) -> int:
    seq = read_points(args.input)
    rep = intervalstats.moments(seq, args.s, args.k)
    payload = {
        "schema": SCHEMA, "kind": "moments", "k": rep.k, "s": rep.s, "n": rep.n,
        "i_k": rep.i_k, "i_k_star": rep.i_k_star,
        "factorial_target": args.s**args.k,
        "bell_prediction": intervalstats.bell_prediction(args.k, args.s),
    }
    _emit(args, payload)
    return 0


def _cmd_energy(args) -> int:
    ints = read_integers(args.input)
    e = arithmetic.additive_energy(ints)
    t = arithmetic.three_ap_count(ints)
    n = len(ints)
    payload = {
        "schema": SCHEMA, "kind": "energy", "size": n,
        "additive_energy": e, "three_ap_count": t,
        "energy_over_n3": e / n**3, "ap_over_n2": t / n**2,
    }
    _emit(args, payload)
    return 0


def _cmd_metric(args) -> int:
    ints = read_integers(args.input)
    rep = arithmetic.metric_r3_experiment(ints, args.s, args.n, args.trials, args.seed)
    payload = {"schema": SCHEMA, "kind": "metric", **asdict(rep)}
    _emit(args, payload)
    return 0


def _cmd_dist(args) -> int:
    seq = read_points(args.input)
    prof = distribution.dyadic_profile(seq, args.r)
    payload = {
        "schema": SCHEMA, "kind": "dist", "n": len(seq), "level": args.r, "k": args.k,
        "masses": prof.masses.tolist(),
        "density_moment": distribution.density_moment_lower_bound(seq, args.r, args.k),
        "star_discrepancy": distribution.star_discrepancy(seq),
    }
    _emit(args, payload)
    return 0


def _cmd_verify(args) -> int:
    tier = "full" if args.full else "quick"
    report = run_verify(tier=tier, seed=args.seed)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        line = f"{c.status.upper():6s} {c.name:<{width}s}  measured={c.measured}  target={c.target}"
        sys.stdout.write(line + "\n")
    n_fail = len(report.failed)
    sys.stdout.write(
        f"{len(report.checks)} checks, {n_fail} failed "
        f"(tier={tier}, seed={report.seed})\n"
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
    return 1 if n_fail else 0


def parse_sweep_stat(stat: str) -> tuple[str, int, bool]:
    m = _SWEEP_RE.match(stat)
    if not m:
        raise ParameterError(
            f"unknown sweep statistic {stat!r} (expected e.g. r2, r3star, i3, i2star, c2star, bell2)"
        )
    family, k, star = m.group(1), int(m.group(2)), bool(m.group(3))
    if family == "c" and (k != 2 or not star):
        raise ParameterError("only c2star is supported among the averaged statistics")
    return family, k, star


def sweep_rows(stat: str, s: float, sizes, kind: str, seed,
               alpha=None, degree=None) -> list[tuple]:
    """(N, statistic, target, deviation) rows for one statistic over N.

    Targets are the fully Poissonian limits: (2s)^(k-1) for r_k,
    sum_m S(k,m)(2s)^(m-1) for r_k*, s^k for I_k, the Poisson moment
    polynomial for I_k* and bell, and s^2+s for c2star.
    """
    from .core import stirling_second

    family, k, star = parse_sweep_stat(stat)
    sizes = [int(n) for n in sizes]
    if len(sizes) == 0 or sorted(sizes) != sizes or sizes[0] < 1:
        raise ParameterError("sizes must be a nonempty increasing list of N >= 1")
    spec = seqgen.GeneratorSpec(kind=kind, alpha=alpha, degree=degree,
                                seed=seed if kind == "uniform_random" else None)

    if family == "r" and not star:
        tgt = (2.0 * s) ** (k - 1)
    elif family == "r":
        tgt = float(sum(stirling_second(k, m) * (2.0 * s) ** (m - 1) for m in range(1, k + 1)))
    elif family == "i" and not star:
        tgt = float(s) ** k
    elif family == "i" or family == "bell":
        tgt = intervalstats.bell_prediction(k, s)
    else:  # c2star
        tgt = s * s + s

    rows = []
    for n in sizes:
        seq = None if family == "bell" else seqgen.generate(spec, n)
        if family == "r":
            fn = correlations.r_k_star if star else correlations.r_k_distinct
            v = fn(seq, (s,) * (k - 1)).value
        elif family == "i":
            rep = intervalstats.moments(seq, s, k)
            v = rep.i_k_star if star else rep.i_k
        elif family == "c":
            v = averaged.c_k_star(seq, (s,))
        else:  # bell: pure function of s, constant in N, so no sequence
            v = intervalstats.bell_prediction(k, s)
        rows.append((n, v, tgt, abs(v - tgt)))
    return rows


def rows_to_csv(rows) -> str:
    return _csv_text(["N", "statistic", "target", "deviation"],
                     ([n, repr(v), repr(tgt), repr(dev)] for n, v, tgt, dev in rows))


def _cmd_sweep(args) -> int:
    sizes = [_number(x, int, "size") for x in args.N.split(",") if x.strip()]
    rows = sweep_rows(args.stat, args.s, sizes, args.kind, args.seed,
                      alpha=args.alpha, degree=args.degree)
    _write(args, rows_to_csv(rows))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="corrkit",
        description="Correlation statistics of sequences modulo one.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a point sequence file")
    g.add_argument("--kind", choices=seqgen.KINDS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--alpha", type=float)
    g.add_argument("--degree", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--integers", help="integer file for the dilated family")
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_gen)

    c = sub.add_parser("corr", help="correlation counts R_k / R_k* / box form")
    c.add_argument("--input", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--s", help="comma list of scales (one value = equal scales)")
    c.add_argument("--box", help="comma list of a:b signed bounds")
    c.add_argument("--star", action="store_true", help="allow repeated indices")
    c.add_argument("--format", choices=("json", "csv"), default="json")
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_corr)

    cs = sub.add_parser("cstar", help="scale-averaged correlation C_k*")
    cs.add_argument("--input", required=True)
    cs.add_argument("--k", type=int, required=True)
    cs.add_argument("--s", required=True)
    cs.add_argument("--interval", help="lo:hi restriction (equal scales only)")
    cs.add_argument("--out")
    cs.set_defaults(fn=_cmd_cstar)

    m = sub.add_parser("moments", help="exact moments of the window count F")
    m.add_argument("--input", required=True)
    m.add_argument("--s", type=float, required=True)
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--out")
    m.set_defaults(fn=_cmd_moments)

    e = sub.add_parser("energy", help="additive energy and 3-AP count")
    e.add_argument("--input", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=_cmd_energy)

    me = sub.add_parser("metric", help="randomized dilation experiment for R_3")
    me.add_argument("--input", required=True)
    me.add_argument("--s", type=float, required=True)
    me.add_argument("--n", type=int, required=True)
    me.add_argument("--trials", type=int, required=True)
    me.add_argument("--seed", type=int, default=DEFAULT_SEED)
    me.add_argument("--out")
    me.set_defaults(fn=_cmd_metric)

    d = sub.add_parser("dist", help="distribution diagnostics")
    d.add_argument("--input", required=True)
    d.add_argument("--r", type=int, required=True)
    d.add_argument("--k", type=int, default=2)
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_dist)

    v = sub.add_parser("verify", help="run the identity/inequality suite")
    tier = v.add_mutually_exclusive_group()
    tier.add_argument("--quick", action="store_true", default=True)
    tier.add_argument("--full", action="store_true")
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--json", help="also write the full report as JSON")
    v.set_defaults(fn=_cmd_verify)

    sw = sub.add_parser("sweep", help="statistic vs N as CSV")
    sw.add_argument("--stat", required=True,
                    help="r2..r9[star], i2..i9[star], c2star, or bell2..bell9")
    sw.add_argument("--s", type=float, required=True)
    sw.add_argument("--N", required=True, help="comma list of increasing sizes")
    sw.add_argument("--kind", choices=seqgen.KINDS, default="uniform_random")
    sw.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sw.add_argument("--alpha", type=float)
    sw.add_argument("--degree", type=int)
    sw.add_argument("--out")
    sw.set_defaults(fn=_cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"work budget exceeded: {exc}", file=sys.stderr)
        return 4
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency check failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
