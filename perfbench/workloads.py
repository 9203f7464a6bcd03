"""The four workloads: inputs from the seed, the job, its checks and the
replay the traced run adds.

A job is a list of Steps, run in order by one client (a closed loop).
Every Step that returns a library result carries a check against a value
from reference.py or from another library path, computed before timing.

Some calls hide inside cli.main or metric_r3_experiment.  The traced run
replays them as direct calls grouped under ``replay.<hidden call>``, so a
group's duration pairs with the hidden call it copies (cli.self_s is the
CLI's time beyond its group).  Decomposition steps outside any group,
such as a PointSequence built again from the parsed array or the
sweep_profile inside moments, split a layer further.

Only public names that ROADMAP items 1-3 keep are called: no threads
argument, no --threads flag and no private helper.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from corrkit import arithmetic, averaged, cli, correlations, intervalstats, io, seqgen
from corrkit.core import PointSequence

BYTES_PER_WINDOW_PAIR = 24  # int64 anchor + int64 position + float64 distance


@dataclass
class Step:
    name: str  # span name: <module>.<function>[.<call label>], or a group name
    fn: Callable[[], Any] | None = None
    check: Callable[[Any], bool] | None = None
    items: int = 0
    tally: dict[str, float] = field(default_factory=dict)  # per-call work counts
    steps: list["Step"] = field(default_factory=list)  # a group runs these in order


@dataclass
class Plan:
    job: list[Step]
    replay: list[Step]

    @property
    def items(self) -> int:
        return sum(s.items for s in self.job)


@dataclass
class Workload:
    setup: Callable  # (seed, tiny, workdir) -> state; timed in setup_s
    references: Callable  # (state, checks) -> None; untimed
    plan: Callable  # (state, tracer) -> Plan
    target: tuple[str, ...]  # span prefixes of the layer the workload stresses
    arrays: Callable  # state -> {label: bytes}


def tent(k: int, s: float):
    """g_s^(k) on one (k-1)-tuple (returns a float) or on an (m, k-1) array."""

    def f(ys):
        arr = np.asarray(ys, dtype=np.float64)
        out = intervalstats.g_eval(k, s, arr)
        return float(out) if arr.ndim == 1 else out

    return f


class CountingTent:
    """Wraps a test function to count rows evaluated, non-zero results and
    seconds inside the callback; flush() hands the totals to the tracer."""

    def __init__(self, f, tracer):
        self.f, self.tr = f, tracer
        self.rows = self.useful = 0
        self.seconds = 0.0

    def __call__(self, ys):
        t0 = time.perf_counter()
        out = self.f(ys)
        self.seconds += time.perf_counter() - t0
        if isinstance(out, float):
            self.rows += 1
            self.useful += out != 0.0
        else:
            self.rows += np.size(out)
            self.useful += int(np.count_nonzero(out))
        return out

    def flush(self):
        self.tr.count("correlations.r_k_consecutive.callback_s", self.seconds)
        self.tr.count("correlations.r_k_consecutive.rows", self.rows)
        self.tr.count("correlations.r_k_consecutive.useful", self.useful)
        self.rows = self.useful = 0
        self.seconds = 0.0


def _json(path) -> dict:
    return json.loads(Path(path).read_text())


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _window_tally(occupants=0, pairs=0) -> dict[str, float]:
    out = {}
    if occupants:
        out["core.window_occupants"] = occupants
    if pairs:
        out["averaged.window_pairs"] = pairs
        out["averaged.bytes_computed"] = BYTES_PER_WINDOW_PAIR * pairs
    return out


# ---------------------------------------------------------------------------
# cli_files: gen, then corr / moments / cstar on the written file


def _cli_setup(seed, tiny, wd):
    n = 60 if tiny else 200_000
    spec = seqgen.GeneratorSpec(kind="uniform_random", seed=int(seed))
    seq = seqgen.generate(spec, n)
    expected_file = wd / "points_expected.txt"
    io.write_points(expected_file, seq)
    return {"n": n, "seed": int(seed), "spec": spec, "seq": seq, "wd": wd,
            "file_bytes": expected_file.read_bytes()}


def _cli_references(st, checks):
    seq, n = st["seq"], st["n"]
    sp = seq.sorted_points
    lines = st["file_bytes"].decode().splitlines()
    checks.add("cli_files: point file parses back to the sequence",
               lines[0].startswith("#") and np.array_equal(np.array(lines[1:], dtype=np.float64), seq.points))
    z1 = ref.window_counts(sp, 1.0 / n)
    corr = correlations.r_k_distinct(seq, (1.0, 1.0))
    checks.add("cli_files: r_k_distinct matches reference", corr.raw_count == ref.distinct_raw([z1, z1]))
    mom = intervalstats.moments(seq, 2.0, 3)
    i3, i3s, bp = ref.sweep_moments(seq.points, 2.0, 3)
    checks.add("cli_files: moments match reference", ref.close(mom.i_k, i3) and ref.close(mom.i_k_star, i3s))
    cst = averaged.c_k_star(seq, (1.0,))
    checks.add("cli_files: c_k_star matches reference",
               ref.close(cst, ref.c_k_star([ref.overlap_sums(sp, 1.0 / n)], n)))
    if n <= 100:
        checks.add("cli_files: r_k_distinct matches brute force",
                   corr.raw_count == correlations.brute_force_r_k(seq, scales=(1.0, 1.0)).raw_count)
    st.update(corr=corr, mom=mom, cstar=cst, breakpoints=bp,
              occupants=2 * int((z1 - 1).sum()), pairs=int(z1.sum()))


def _cli_plan(st, tr):
    n, wd, seq = st["n"], st["wd"], st["seq"]
    pts_file, replay_file = wd / "points.txt", wd / "points_replay.txt"
    out = {c: wd / f"{c}.json" for c in ("corr", "moments", "cstar")}
    corr, mom = st["corr"], st["mom"]
    ws: dict[str, Any] = {}

    def run_cli(*argv):
        return cli.main([str(a) for a in argv])

    def corr_ok(rc):
        p = _json(out["corr"])
        return rc == 0 and p["raw_count"] == corr.raw_count and p["value"] == corr.value

    def moments_ok(rc):
        p = _json(out["moments"])
        return rc == 0 and p["i_k"] == mom.i_k and p["i_k_star"] == mom.i_k_star

    def same_points(s):
        return np.array_equal(s.points, seq.points)

    def read():
        ws["seq"] = io.read_points(pts_file)
        return ws["seq"]

    def rebuild():
        return Step("core.PointSequence", lambda: PointSequence(ws["seq"].points),
                    lambda s: np.array_equal(s.sorted_points, seq.sorted_points))

    def generate():
        ws["gen"] = seqgen.generate(st["spec"], n)
        return ws["gen"]

    job = [
        Step("cli.main.gen", lambda: run_cli("gen", "--kind", "uniform_random", "--n", n,
                                             "--seed", st["seed"], "--out", pts_file),
             lambda rc: rc == 0 and pts_file.read_bytes() == st["file_bytes"], items=n),
        Step("cli.main.corr", lambda: run_cli("corr", "--input", pts_file, "--k", 3, "--s", 1,
                                              "--out", out["corr"]),
             corr_ok, items=n, tally=_window_tally(occupants=st["occupants"])),
        Step("cli.main.moments", lambda: run_cli("moments", "--input", pts_file, "--k", 3, "--s", 2,
                                                 "--out", out["moments"]),
             moments_ok, items=n),
        Step("cli.main.cstar", lambda: run_cli("cstar", "--input", pts_file, "--k", 2, "--s", 1,
                                               "--out", out["cstar"]),
             lambda rc: rc == 0 and _json(out["cstar"])["value"] == st["cstar"], items=n,
             tally=_window_tally(pairs=st["pairs"])),
    ]
    replay = [
        Step("replay.cli.gen", steps=[
            Step("seqgen.generate", generate, same_points),
            Step("io.write_points", lambda: io.write_points(replay_file, ws["gen"]),
                 lambda _: replay_file.read_bytes() == st["file_bytes"]),
        ]),
        Step("replay.cli.corr", steps=[
            Step("io.read_points", read, same_points),
            Step("correlations.r_k_distinct", lambda: correlations.r_k_distinct(ws["seq"], (1.0, 1.0)),
                 lambda r: r.raw_count == corr.raw_count),
        ]),
        rebuild(),
        Step("replay.cli.moments", steps=[
            Step("io.read_points", read, same_points),
            Step("intervalstats.moments", lambda: intervalstats.moments(ws["seq"], 2.0, 3),
                 lambda r: r.i_k == mom.i_k and r.i_k_star == mom.i_k_star),
        ]),
        rebuild(),
        Step("intervalstats.sweep_profile", lambda: intervalstats.sweep_profile(ws["seq"], 2.0),
             lambda p: p.breakpoints.size == st["breakpoints"],
             tally={"intervalstats.breakpoints": st["breakpoints"]}),
        Step("replay.cli.cstar", steps=[
            Step("io.read_points", read, same_points),
            Step("averaged.c_k_star", lambda: averaged.c_k_star(ws["seq"], (1.0,)),
                 lambda v: v == st["cstar"]),
        ]),
        rebuild(),
    ]
    return Plan(job, replay)


# ---------------------------------------------------------------------------
# window_stats: the vectorized window layer on points held in memory


def _win_setup(seed, tiny, wd):
    rng = _rng(seed, 2)
    n, n_wide = (60, 100) if tiny else (1_000_000, 100_000)
    return {"n": n, "n_wide": n_wide, "seq": PointSequence(rng.random(n)),
            "wide": PointSequence(rng.random(n_wide))}


def _win_references(st, checks):
    seq, wide, n, nw = st["seq"], st["wide"], st["n"], st["n_wide"]
    sp = seq.sorted_points
    z1, z2 = ref.window_counts(sp, 1.0 / n), ref.window_counts(sp, 2.0 / n)
    zw = ref.window_counts(wide.sorted_points, 32.0 / nw)
    l1, l2 = ref.overlap_sums(sp, 1.0 / n), ref.overlap_sums(sp, 2.0 / n)
    i3, i3s, bp = ref.sweep_moments(seq.points, 2.0, 3)
    st.update(
        distinct=ref.distinct_raw([z1, z1]), star=ref.star_raw([z1, z1]),
        c2=ref.c_k_star([l1], n), c3=ref.c_k_star([l2, l2], n),
        cw=ref.c_k_star([ref.overlap_sums(wide.sorted_points, 32.0 / nw)], nw),
        i3=i3, i3s=i3s, breakpoints=bp,
        i2s=intervalstats.moments(seq, 1.0, 2).i_k_star,
        i2s_wide=intervalstats.moments(wide, 32.0, 2).i_k_star,
        occupants=2 * int((z1 - 1).sum()), pairs1=int(z1.sum()), pairs2=2 * int(z2.sum()),
        pairs_wide=int(zw.sum()),
    )
    checks.add("window_stats: I_2* = C_2* (reference)", ref.close(st["i2s"], st["c2"]))
    checks.add("window_stats: wide I_2* = C_2* (reference)", ref.close(st["i2s_wide"], st["cw"]))
    if n <= 100:
        checks.add("window_stats: reference matches brute force",
                   st["distinct"] == correlations.brute_force_r_k(seq, scales=(1.0, 1.0)).raw_count
                   and st["star"] == correlations.brute_force_r_k(seq, scales=(1.0, 1.0), star=True).raw_count)


def _win_plan(st, tr):
    seq, wide, n = st["seq"], st["wide"], st["n"]
    job = [
        Step("correlations.r_k_distinct", lambda: correlations.r_k_distinct(seq, (1.0, 1.0)),
             lambda r: r.raw_count == st["distinct"], items=n,
             tally=_window_tally(occupants=st["occupants"])),
        Step("correlations.r_k_star", lambda: correlations.r_k_star(seq, (1.0, 1.0)),
             lambda r: r.raw_count == st["star"], items=n,
             tally=_window_tally(occupants=st["occupants"])),
        Step("averaged.c_k_star", lambda: averaged.c_k_star(seq, (1.0,)),
             lambda v: ref.close(v, st["c2"]) and ref.close(v, st["i2s"]), items=n,
             tally=_window_tally(pairs=st["pairs1"])),
        Step("averaged.c_k_star.k3", lambda: averaged.c_k_star(seq, (2.0, 2.0)),
             lambda v: ref.close(v, st["c3"]), items=n, tally=_window_tally(pairs=st["pairs2"])),
        Step("intervalstats.moments", lambda: intervalstats.moments(seq, 2.0, 3),
             lambda r: ref.close(r.i_k, st["i3"]) and ref.close(r.i_k_star, st["i3s"]), items=n),
        Step("averaged.c_k_star.wide", lambda: averaged.c_k_star(wide, (32.0,)),
             lambda v: ref.close(v, st["cw"]) and ref.close(v, st["i2s_wide"]), items=st["n_wide"],
             tally=_window_tally(pairs=st["pairs_wide"])),
    ]
    replay = [
        Step("intervalstats.sweep_profile", lambda: intervalstats.sweep_profile(seq, 2.0),
             lambda p: p.breakpoints.size == st["breakpoints"],
             tally={"intervalstats.breakpoints": st["breakpoints"]}),
    ]
    return Plan(job, replay)


# ---------------------------------------------------------------------------
# enumeration: the per-anchor tuple loops

BOX3 = ((-1.0, 1.0), (0.0, 2.0))
BOX4 = ((-1.0, 1.0), (0.0, 2.0), (-2.0, 0.5))
BOX_SYM = ((-1.0, 1.0), (-1.0, 1.0))


def _enum_setup(seed, tiny, wd):
    rng = _rng(seed, 3)
    n, n_consec = (24, 16) if tiny else (10_000, 5_000)
    return {"n": n, "n_consec": n_consec, "seq": PointSequence(rng.random(n)),
            "consec": PointSequence(rng.random(n_consec))}


def _enum_references(st, checks):
    seq, consec, n = st["seq"], st["consec"], st["n"]
    sp = seq.sorted_points
    z1 = ref.window_counts(sp, 1.0 / n)
    st.update(box3=ref.box_count(sp, BOX3, n), box4=ref.box_count(sp, BOX4, n),
              box_sym=ref.box_count(sp, BOX_SYM, n),
              i3=intervalstats.moments(seq, 1.0, 3).i_k,
              consec_sum=ref.consecutive_sum(consec.sorted_points, tent(3, 1.0), 1.0, st["n_consec"]))
    lib_distinct = correlations.r_k_distinct(seq, (1.0, 1.0)).raw_count
    checks.add("enumeration: symmetric box reference = r_k_distinct = distinct reference",
               st["box_sym"] == lib_distinct == ref.distinct_raw([z1, z1]))
    checks.add("enumeration: moments I_3 matches reference",
               ref.close(st["i3"], ref.sweep_moments(seq.points, 1.0, 3)[0]))
    if n <= 100:
        tent3 = tent(3, 1.0)
        checks.add("enumeration: box references match brute force",
                   st["box3"] == correlations.brute_force_r_k(seq, boxes=BOX3).raw_count
                   and st["box4"] == correlations.brute_force_r_k(seq, boxes=BOX4).raw_count)
        checks.add("enumeration: tent sum matches brute force I_3",
                   ref.close(st["i3"], correlations.brute_force_r_k(
                       seq, testfn=tent3, k=3, support_radius=1.0).value))
        checks.add("enumeration: consecutive reference matches brute force",
                   ref.close(st["consec_sum"],
                             ref.consecutive_sum_bruteforce(consec.points, tent3, 3)))


def _enum_plan(st, tr):
    seq, n = st["seq"], st["n"]
    f = CountingTent(tent(3, 1.0), tr) if tr.enabled else tent(3, 1.0)

    def consecutive():
        rep = correlations.r_k_consecutive(st["consec"], f, 1.0, 3)
        if tr.enabled:
            f.flush()
        return rep

    job = [
        Step("correlations.r_k_box", lambda: correlations.r_k_box(seq, BOX3),
             lambda r: r.raw_count == st["box3"], items=n),
        Step("correlations.r_k_box.k4", lambda: correlations.r_k_box(seq, BOX4),
             lambda r: r.raw_count == st["box4"], items=n),
        Step("correlations.r_k_box.sym", lambda: correlations.r_k_box(seq, BOX_SYM),
             lambda r: r.raw_count == st["box_sym"], items=n),
        Step("intervalstats.i_k_via_correlation",
             lambda: intervalstats.i_k_via_correlation(seq, 1.0, 3),
             lambda v: ref.close(v, st["i3"]), items=n),
        Step("correlations.r_k_consecutive", consecutive,
             lambda r: ref.close(r.value, st["consec_sum"]), items=st["n_consec"]),
    ]
    return Plan(job, [])


# ---------------------------------------------------------------------------
# dilation: pair-sum combinatorics and many small point sequences

METRIC_S = 0.5


def _dil_setup(seed, tiny, wd):
    rng = _rng(seed, 4)
    size, universe, n_range, n_sq, trials = (40, 320, 40, 20, 4) if tiny else (4000, 32000, 4000, 2000, 200)
    subset = np.sort(rng.choice(np.arange(1, universe + 1), size, replace=False)).tolist()
    return {"seed": int(seed), "subset": subset, "range": list(range(1, n_range + 1)),
            "squares": [m * m for m in range(1, n_sq + 1)], "trials": trials, "wd": wd}


def _dil_references(st, checks):
    subset, squares, trials, seed = st["subset"], st["squares"], st["trials"], st["seed"]
    n_range, n = len(st["range"]), len(squares)
    e_sub, t_sub = ref.energy_and_aps(subset)
    e_range = arithmetic.additive_energy_range_closed_form(n_range)
    checks.add("dilation: closed-form energy matches reference",
               e_range == ref.energy_and_aps(st["range"])[0])
    points, raws, occupants = [], [], []
    for t in range(trials):
        alpha = float(np.random.default_rng(np.random.SeedSequence([seed, t])).random())
        pts = ref.frac_parts(squares, alpha)
        z = ref.window_counts(np.sort(pts), METRIC_S / n)
        points.append(pts)
        raws.append(ref.distinct_raw([z, z]))
        occupants.append(2 * int((z - 1).sum()))
    vals = np.array(raws) / n
    st.update(energy=e_sub, aps=t_sub, e_range=e_range, t_range=ref.aps_of_range(n_range),
              t_squares=ref.energy_and_aps(squares)[1], trial_points=points, trial_raws=raws,
              trial_occupants=occupants,
              metric_mean=float(vals.mean()), metric_var=float(vals.var(ddof=1)),
              metric_frac=float(np.mean(vals > 4.0 * METRIC_S**2)))
    if n <= 100:
        checks.add("dilation: references match the brute-force oracles",
                   arithmetic.additive_energy_bruteforce(subset[:16]) == ref.energy_and_aps(subset[:16])[0]
                   and arithmetic.three_ap_count_bruteforce(subset) == t_sub
                   and correlations.brute_force_r_k(PointSequence(points[0]), scales=(METRIC_S,) * 2
                                                    ).raw_count == raws[0])


def _dil_plan(st, tr):
    wd, subset, squares, seed = st["wd"], st["subset"], st["squares"], st["seed"]
    n, trials = len(squares), st["trials"]
    ints_file, out = wd / "integers.txt", wd / "energy.json"
    ws: dict[str, Any] = {}

    def write_integers():
        ints_file.write_text("".join(f"{a}\n" for a in subset))

    def energy_ok(rc):
        p = _json(out)
        return rc == 0 and p["additive_energy"] == st["energy"] and p["three_ap_count"] == st["aps"]

    def metric_ok(rep):
        return (ref.close(rep.mean, st["metric_mean"]) and ref.close(rep.variance, st["metric_var"])
                and rep.fraction_above_poisson == st["metric_frac"]
                and ref.close(rep.lower_bound, 2.0 * METRIC_S * st["t_squares"] / n**2))

    def read_ints():
        ws["ints"] = io.read_integers(ints_file)
        return ws["ints"]

    job = [
        Step("bench.write_integers", write_integers),
        Step("cli.main.energy", lambda: cli.main(["energy", "--input", str(ints_file), "--out", str(out)]),
             energy_ok, items=len(subset), tally={"arithmetic.pair_sums": 2 * len(subset) ** 2}),
        Step("arithmetic.additive_energy", lambda: arithmetic.additive_energy(st["range"]),
             lambda e: e == st["e_range"], items=len(st["range"]),
             tally={"arithmetic.pair_sums": len(st["range"]) ** 2}),
        Step("arithmetic.three_ap_count", lambda: arithmetic.three_ap_count(st["range"]),
             lambda t: t == st["t_range"], items=len(st["range"]),
             tally={"arithmetic.pair_sums": len(st["range"]) ** 2}),
        Step("arithmetic.metric_r3_experiment",
             lambda: arithmetic.metric_r3_experiment(squares, METRIC_S, n, trials, seed),
             metric_ok, items=n, tally={"arithmetic.pair_sums": n**2}),
    ]

    trial_steps = [Step("arithmetic.three_ap_count", lambda: arithmetic.three_ap_count(squares),
                        lambda t: t == st["t_squares"])]
    for t in range(trials):
        def draw(t=t):
            ws["alpha"] = float(seqgen.trial_rng(seed, t).random())

        def frac():
            ws["pts"] = seqgen.exact_frac_parts(squares, ws["alpha"])
            return ws["pts"]

        def build():
            ws["seq"] = PointSequence(ws["pts"])
            return ws["seq"]

        trial_steps += [
            Step("seqgen.trial_rng", draw),
            Step("seqgen.exact_frac_parts", frac,
                 lambda p, t=t: np.array_equal(p, st["trial_points"][t])),
            Step("core.PointSequence", build, lambda s: s.n == n),
            Step("correlations.r_k_distinct",
                 lambda: correlations.r_k_distinct(ws["seq"], (METRIC_S, METRIC_S)),
                 lambda r, t=t: r.raw_count == st["trial_raws"][t],
                 tally=_window_tally(occupants=st["trial_occupants"][t])),
        ]
    replay = [
        Step("replay.cli.energy", steps=[
            Step("io.read_integers", read_ints, lambda v: v == subset),
            Step("arithmetic.additive_energy", lambda: arithmetic.additive_energy(ws["ints"]),
                 lambda e: e == st["energy"]),
            Step("arithmetic.three_ap_count", lambda: arithmetic.three_ap_count(ws["ints"]),
                 lambda t: t == st["aps"]),
        ]),
        Step("replay.arithmetic.metric_r3_experiment", steps=trial_steps),
    ]
    return Plan(job, replay)


WORKLOADS = {
    "cli_files": Workload(
        _cli_setup, _cli_references, _cli_plan, ("io.",),
        lambda st: {"points": 8 * st["n"], "point file": len(st["file_bytes"])}),
    "window_stats": Workload(
        _win_setup, _win_references, _win_plan,
        ("correlations.r_k_distinct", "correlations.r_k_star", "averaged.", "intervalstats.moments"),
        lambda st: {"sorted points": 8 * st["n"], "tripled window array": 24 * st["n"],
                    "wide pair expansion (computed)": BYTES_PER_WINDOW_PAIR * st["pairs_wide"]}),
    "enumeration": Workload(
        _enum_setup, _enum_references, _enum_plan,
        ("correlations.r_k_box", "intervalstats.i_k_via_correlation", "correlations.r_k_consecutive"),
        lambda st: {"points": 8 * st["n"]}),
    "dilation": Workload(
        _dil_setup, _dil_references, _dil_plan, ("arithmetic.",),
        lambda st: {"pair-sum array": 8 * len(st["subset"]) ** 2}),
}
