import json
import re

import numpy as np
import pytest

from corrkit.cli import main, parse_sweep_stat, rows_to_csv, sweep_rows
from corrkit.io import read_integers, read_points, write_points
from corrkit import (FormatError, ParameterError, PointSequence, bell_prediction, brute_force_r_k,
                     c_k_star, c_k_star_local, density_moment_lower_bound, distribution,
                     integer_range, metric_r3_experiment, moments, order_comparison_threshold,
                     r_k_box, r_k_distinct, r_k_star, r_k_testfn, random_correlation_stats, seqgen)


@pytest.fixture()
def points_file(tmp_path):
    path = tmp_path / "pts.txt"
    main(["gen", "--kind", "uniform_random", "--n", "5000", "--seed", "1729",
          "--out", str(path)])
    return path


@pytest.fixture()
def integers_file(tmp_path):
    path = tmp_path / "ints.txt"
    path.write_text("# integers\n" + "\n".join(str(i) for i in range(1, 129)) + "\n")
    return path


def test_gen_roundtrip(tmp_path):
    path = tmp_path / "p.txt"
    assert main(["gen", "--kind", "dyadic_counterexample", "--n", "8", "--out", str(path)]) == 0
    seq = read_points(path)
    assert seq.points.tolist() == [0.0, 0.0, 0.5, 0.5, 0.25, 0.25, 0.75, 0.75]


@pytest.mark.parametrize("kind", ["uniform_random", "van_der_corput"])
def test_gen_stdout_is_the_file_without_its_header(tmp_path, capsys, kind):
    path = tmp_path / "p.txt"
    argv = ["gen", "--kind", kind, "--n", "300", "--seed", "11"]
    assert main(argv + ["--out", str(path)]) == 0
    assert main(argv) == 0
    header, body = path.read_bytes().split(b"\n", 1)
    assert header == b"# 300 points in [0,1)"
    assert capsys.readouterr().out.encode() == body


def test_point_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\n1.0\n")
    with pytest.raises(FormatError):
        read_points(path)


def test_point_file_comments_and_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    seq = PointSequence([0.125, 0.625, 0.0009765625])
    write_points(path, seq)
    again = read_points(path)
    assert again.points.tolist() == seq.points.tolist()  # repr round-trips floats


def test_integer_file_validation(tmp_path):
    good = tmp_path / "g.txt"
    good.write_text("1\n2\n5\n")
    assert read_integers(good) == [1, 2, 5]
    for text in ("2\n1\n", "0\n1\n", "x\n"):
        bad = tmp_path / "b.txt"
        bad.write_text(text)
        with pytest.raises(FormatError):
            read_integers(bad)


def test_corr_json_output(points_file, capsys):
    assert main(["corr", "--input", str(points_file), "--k", "2", "--s", "1.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "corrkit/1"
    assert payload["k"] == 2
    assert payload["value"] == payload["raw_count"] / payload["n"]
    assert abs(payload["value"] - 2.0) < 0.3
    assert json.loads(json.dumps(payload)) == payload


def test_corr_star_and_box(points_file, capsys):
    assert main(["corr", "--input", str(points_file), "--k", "2", "--s", "1.0", "--star"]) == 0
    star = json.loads(capsys.readouterr().out)
    assert star["statistic"] == "r_k_star"
    assert main(["corr", "--input", str(points_file), "--k", "2", "--box", "0:1"]) == 0
    box = json.loads(capsys.readouterr().out)
    assert box["statistic"] == "r_k_box"
    assert abs(box["value"] - 1.0) < 0.3


def test_corr_counts_ties_on_the_stored_doubles(tmp_path, capsys):
    # N = 5, s = 1: every neighbour sits 1/5 away, but only the pairs
    # (0.4, 0.6) and (0.8, 0) are within 1/5 as stored doubles
    path = tmp_path / "fifths.txt"
    path.write_text("0\n0.2\n0.4\n0.6\n0.8\n")
    assert main(["corr", "--input", str(path), "--k", "2", "--s", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["raw_count"] == 4
    assert main(["corr", "--input", str(path), "--k", "2", "--box=-1:1"]) == 0
    assert json.loads(capsys.readouterr().out)["raw_count"] == 4


def test_corr_csv_format(points_file, capsys):
    assert main(["corr", "--input", str(points_file), "--k", "3", "--s", "1.0",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "statistic,k,N,raw_count,value"
    assert len(lines) == 2


@pytest.mark.parametrize("argv", [
    ["corr", "--k", "2", "--s", "1"], ["moments", "--k", "2", "--s", "1"],
    ["energy"], ["metric", "--s", "0.5", "--n", "10", "--trials", "2"],
])
def test_files_that_are_not_utf8_exit_3(tmp_path, capsys, argv):
    # a point file for corr and moments, an integer file for energy and metric
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n0.5\n" if argv[0] in ("corr", "moments") else b"1\n# caf\xe9\n2\n")
    assert main([argv[0], "--input", str(path), *argv[1:]]) == 3
    line = 1 if argv[0] in ("corr", "moments") else 2
    assert capsys.readouterr().err == f"input format error: {path}:{line}: not UTF-8 text\n"


def test_corr_parameter_exit_codes(points_file, capsys):
    assert main(["corr", "--input", str(points_file), "--k", "2", "--s", "99999"]) == 2
    capsys.readouterr()
    assert main(["corr", "--input", "missing.txt", "--k", "2", "--s", "1.0"]) == 3
    capsys.readouterr()
    assert main(["corr", "--input", str(points_file), "--k", "2"]) == 2
    capsys.readouterr()
    assert main(["corr", "--input", str(points_file), "--k", "2", "--box", "0:1",
                 "--star"]) == 2
    capsys.readouterr()


def test_moments_order_above_sixteen_is_named_before_the_sweep(points_file, capsys,
                                                                 monkeypatch):
    def no_windows(*args):
        raise AssertionError("a window was taken")

    monkeypatch.setattr("corrkit.core.self_window_blocks", no_windows)
    assert main(["moments", "--input", str(points_file), "--k", "20", "--s", "1"]) == 2
    assert "parameter error: orders above k = 16 are unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "uniform_random", "--n", "3", "--seed", "-1"],
    ["metric", "--s", "0.2", "--n", "16", "--trials", "2", "--seed", "-1"],
    ["sweep", "--stat", "r2", "--s", "1", "--N", "50", "--seed", "-3"],
    ["verify", "--seed", "-1"],
], ids=["gen", "metric", "sweep", "verify"])
def test_negative_seed_is_a_parameter_error(integers_file, capsys, argv):
    if argv[0] == "metric":
        argv = argv + ["--input", str(integers_file)]
    assert main(argv) == 2
    assert "parameter error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["corr", "cstar"])
@pytest.mark.parametrize("k", ["-3", "0", "1"])
def test_order_below_two_is_named(points_file, capsys, cmd, k):
    assert main([cmd, "--input", str(points_file), f"--k={k}", "--s", "1"]) == 2
    assert "parameter error: k must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "1"])
def test_box_order_below_two_is_named(points_file, capsys, k):
    assert main(["corr", "--input", str(points_file), f"--k={k}", "--box", "0:1"]) == 2
    assert "parameter error: k must be >= 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, what", [
    (["corr", "--k", "2", "--s", "abc"], "scale 'abc'"),
    (["sweep", "--stat", "r2", "--s", "1", "--N", "10,x"], "size 'x'"),
    (["corr", "--k", "2", "--box", "0:y"], "box 'y'"),
    (["cstar", "--k", "2", "--s", "1", "--interval", "0.2:q"], "interval 'q'"),
])
def test_non_numeric_option_is_a_parameter_error(points_file, capsys, argv, what):
    if argv[0] != "sweep":
        argv = argv[:1] + ["--input", str(points_file)] + argv[1:]
    assert main(argv) == 2
    assert f"parameter error: {what} is not a number" in capsys.readouterr().err


def test_cstar_and_moments(points_file, capsys):
    assert main(["cstar", "--input", str(points_file), "--k", "2", "--s", "2.0"]) == 0
    cstar = json.loads(capsys.readouterr().out)
    assert main(["moments", "--input", str(points_file), "--s", "2.0", "--k", "2"]) == 0
    mom = json.loads(capsys.readouterr().out)
    # the pair average equals the second power moment of the window count
    assert cstar["value"] == pytest.approx(mom["i_k_star"], rel=1e-9)
    assert mom["bell_prediction"] == 6.0
    assert mom["factorial_target"] == 4.0


def test_cstar_local(points_file, capsys):
    assert main(["cstar", "--input", str(points_file), "--k", "3", "--s", "1.0",
                 "--interval", "0:0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["interval"] == [0.0, 0.5]
    assert payload["value"] >= 0.0


def test_energy_and_metric(integers_file, capsys):
    assert main(["energy", "--input", str(integers_file)]) == 0
    e = json.loads(capsys.readouterr().out)
    assert e["additive_energy"] == 128 * 129 * 257 // 3 - 128**2
    assert e["three_ap_count"] == 2 * 64 * 63  # two orderings per progression in 1..128
    assert main(["metric", "--input", str(integers_file), "--s", "0.2", "--n", "128",
                 "--trials", "10", "--seed", "3"]) == 0
    m = json.loads(capsys.readouterr().out)
    assert m["trials"] == 10 and m["lower_bound"] > 0


def test_metric_needs_one_point(integers_file, capsys):
    assert main(["metric", "--input", str(integers_file), "--s", "0.2", "--n", "0",
                 "--trials", "2"]) == 2
    assert "parameter error: N must be >= 1, got N = 0" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_non_finite_alpha_is_a_parameter_error(capsys, alpha):
    assert main(["gen", "--kind", "kronecker", "--n", "5", f"--alpha={alpha}"]) == 2
    assert "parameter error: alpha must be finite" in capsys.readouterr().err


def test_energy_large_elements(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(f"{2**62}\n{2**62 + 1}\n{2**62 + 2}\n")
    assert main(["energy", "--input", str(path)]) == 0
    e = json.loads(capsys.readouterr().out)
    assert e["additive_energy"] == 19 and e["three_ap_count"] == 2
    path.write_text(f"1\n{2**63}\n")
    assert main(["energy", "--input", str(path)]) == 2
    assert "2^63" in capsys.readouterr().err


def test_energy_budget_exit_code(tmp_path, capsys, monkeypatch):
    path = tmp_path / "wide.txt"
    path.write_text("".join(f"{2**40 + 2**30 * i}\n" for i in range(1, 12)))
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "100")
    assert main(["energy", "--input", str(path)]) == 4
    assert "CORRKIT_ORACLE_BUDGET" in capsys.readouterr().err


def test_metric_budget_exit_code(integers_file, capsys, monkeypatch):
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", "100")
    assert main(["metric", "--input", str(integers_file), "--s", "0.2", "--n", "128",
                 "--trials", "2"]) == 4
    assert "CORRKIT_ORACLE_BUDGET" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["abc", "1e9", "-5"])
def test_malformed_budget_is_a_parameter_error(points_file, integers_file, capsys, monkeypatch,
                                               budget):
    # int() raised a ValueError traceback (exit 1, verify's code for failed
    # checks) on the first two; -5 refused every costly job with exit 4
    monkeypatch.setenv("CORRKIT_ORACLE_BUDGET", budget)
    message = f"parameter error: CORRKIT_ORACLE_BUDGET = {budget!r} is not an integer >= 0\n"
    for argv in (["corr", "--input", str(points_file), "--k", "3", "--box=-1:1,0:2"],
                 ["metric", "--input", str(integers_file), "--s", "0.5", "--n", "128",
                  "--trials", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


def test_box_partition_budget_exit_code(tmp_path, capsys, monkeypatch):
    # Bell(15) partition terms per live anchor: refused at the default budget
    monkeypatch.delenv("CORRKIT_ORACLE_BUDGET", raising=False)
    path = tmp_path / "pts.txt"
    main(["gen", "--kind", "uniform_random", "--n", "2000", "--seed", "1729", "--out", str(path)])
    assert main(["corr", "--input", str(path), "--k", "16", "--box=" + ",".join(["-4:4"] * 15)]) == 4
    assert capsys.readouterr().err.startswith("work budget exceeded: box partition terms")


def test_energy_consistency_error_exit_code(integers_file, capsys, monkeypatch):
    irfft = np.fft.irfft

    def off_by_half(*args, **kwargs):  # one pair-sum count lands between integers
        out = irfft(*args, **kwargs)
        out[5] += 0.5
        return out

    monkeypatch.setattr(np.fft, "irfft", off_by_half)
    assert main(["energy", "--input", str(integers_file)]) == 5
    assert "consistency" in capsys.readouterr().err


def test_energy_takes_one_fft_for_both_counts(integers_file, capsys, monkeypatch):
    # 1..128 is dense: E(A) and T(A) come off one FFT pair-sum table
    rfft, calls = np.fft.rfft, []

    def counting(*args, **kwargs):
        calls.append(args[0].size)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    assert main(["energy", "--input", str(integers_file)]) == 0
    assert calls == [256]
    e = json.loads(capsys.readouterr().out)
    assert (e["additive_energy"], e["three_ap_count"]) == (128 * 129 * 257 // 3 - 128**2, 2 * 64 * 63)


def test_main_builds_one_parser(integers_file, capsys, monkeypatch):
    from corrkit import cli

    assert main(["energy", "--input", str(integers_file)]) == 0

    def rebuilt():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(["energy", "--input", str(integers_file)]) == 0
    assert main(["metric", "--input", str(integers_file), "--s", "0.2", "--n", "128",
                 "--trials", "2"]) == 0
    first, second, metric = capsys.readouterr().out.splitlines()
    assert first == second and json.loads(metric)["kind"] == "metric"


def test_unknown_verify_tier_is_a_parameter_error():
    from corrkit import run_verify

    with pytest.raises(ParameterError, match="tier must be 'quick' or 'full', got 'fast'"):
        run_verify(tier="fast")


def test_dist_reports_masses(points_file, capsys):
    assert main(["dist", "--input", str(points_file), "--r", "2", "--k", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["masses"]) == 4
    assert sum(payload["masses"]) == pytest.approx(1.0)
    assert 0 < payload["star_discrepancy"] < 0.1


def test_dist_builds_its_dyadic_profile_once(points_file, capsys, monkeypatch):
    # the density moment is read off the masses' own profile: at --r 24
    # each build is 2^24 buckets
    real, levels = distribution.dyadic_profile, []

    def counting(seq, r):
        levels.append(r)
        return real(seq, r)

    monkeypatch.setattr(distribution, "dyadic_profile", counting)
    assert main(["dist", "--input", str(points_file), "--r", "5", "--k", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert levels == [5]
    assert payload["density_moment"] == density_moment_lower_bound(read_points(points_file), 5, 3)


@pytest.mark.parametrize("level", ["25", "40", "70"])
def test_dist_rejects_levels_past_the_bucket_cap(points_file, capsys, level):
    # 2^40 buckets would need 8 TiB of counts; 2^70 overflowed the scaling
    assert main(["dist", "--input", str(points_file), "--r", level]) == 2
    assert "parameter error" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["17", "60"])
def test_dist_order_above_sixteen_is_named(points_file, capsys, k):
    # at k = 60 and level 24, 2^(24 (k-1)) overflowed a float: a traceback and exit 1
    assert main(["dist", "--input", str(points_file), "--r", "24", "--k", k]) == 2
    assert "orders above k = 16 are unsupported" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--stat", "r9", "--s", "1e300", "--N", "10"],
    ["--stat", "i3", "--s", "1e200", "--N", "10"],
    ["--stat", "bell9", "--s", "1e40", "--N", "10"],
    ["--stat", "bell2", "--s", "-1", "--N", "10"],
    ["--stat", "bell2", "--s", "nan", "--N", "10"],
])
def test_sweep_checks_the_scale_before_the_target(capsys, argv):
    # the targets of the first three overflowed before any check on s;
    # bell2 printed rows of 0.0 at s = -1 and of nan at s = nan
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert "parameter error" in captured.err and captured.out == ""


def test_nan_scale_is_a_parameter_error(points_file, capsys):
    assert main(["corr", "--input", str(points_file), "--k", "2", "--s", "nan"]) == 2
    assert main(["corr", "--input", str(points_file), "--k", "2", "--box", "nan:0.5"]) == 2
    assert main(["corr", "--input", str(points_file), "--k", "2", "--box=-inf:0.5"]) == 2
    assert main(["moments", "--input", str(points_file), "--k", "2", "--s", "nan"]) == 2
    assert main(["sweep", "--stat", "i2", "--s", "nan", "--N", "10,20"]) == 2
    assert capsys.readouterr().err.count("parameter error") == 5


def test_sweep_stat_parsing():
    assert parse_sweep_stat("r2") == ("r", 2, False)
    assert parse_sweep_stat("r3star") == ("r", 3, True)
    assert parse_sweep_stat("i4") == ("i", 4, False)
    assert parse_sweep_stat("bell2") == ("bell", 2, False)
    assert parse_sweep_stat("c2star") == ("c", 2, True)
    for bad in ("r1", "c3star", "c2", "x2", "r2 star"):
        with pytest.raises(Exception):
            parse_sweep_stat(bad)


def test_sweep_csv_shape_and_final_deviation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--stat", "r2", "--s", "1.0", "--N", "1000,10000,60000",
                 "--seed", "1729", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,statistic,target,deviation"
    assert len(lines) == 4
    final_dev = float(lines[-1].split(",")[-1])
    assert final_dev < 0.1


def test_sweep_bell_constant_deviation_zero(capsys):
    assert main(["sweep", "--stat", "bell2", "--s", "2.0", "--N", "10,100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert line.split(",")[-1] == "0.0"


def test_sweep_bell_generates_no_sequence(monkeypatch, capsys):
    def refuse(spec, n):
        raise AssertionError("the Poisson moments need no sequence")

    monkeypatch.setattr(seqgen, "generate", refuse)
    assert main(["sweep", "--stat", "bell3", "--s", "1", "--N", "100000,1000000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "N,statistic,target,deviation", "100000,5.0,5.0,0.0", "1000000,5.0,5.0,0.0"]
    # every family refuses N < 1, sequence or not
    assert main(["sweep", "--stat", "bell2", "--s", "1", "--N", "0,10"]) == 2
    assert "N >= 1" in capsys.readouterr().err


def test_box_count_is_one_rule_for_both_callers(points_file, capsys):
    message = "expected 2 boxes for k = 3, got 1"
    assert main(["corr", "--input", str(points_file), "--k", "3", "--box", "0:1"]) == 2
    assert capsys.readouterr().err == f"parameter error: {message}\n"
    with pytest.raises(ParameterError, match=f"^{message}$"):
        random_correlation_stats(3, ((0.0, 1.0),), 100, 4, 0)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        r_k_box(read_points(points_file), ((0.0, 1.0),), 3)
    assert r_k_box(read_points(points_file), ((0.0, 1.0),), 2) == r_k_box(
        read_points(points_file), ((0.0, 1.0),))


def test_sweep_dyadic_triple_identically_zero(capsys):
    assert main(["sweep", "--stat", "r3", "--s", "1.5", "--N", "4,8,16,32",
                 "--kind", "dyadic_counterexample"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert line.split(",")[1] == "0.0"


@pytest.mark.parametrize("stat, statistic, target", [
    ("r3", lambda q, s: r_k_distinct(q, (s, s)).value, lambda s: (2 * s) ** 2),
    ("r3star", lambda q, s: r_k_star(q, (s, s)).value, lambda s: 1 + 3 * 2 * s + (2 * s) ** 2),
    ("i3", lambda q, s: moments(q, s, 3).i_k, lambda s: s**3),
    ("i2star", lambda q, s: moments(q, s, 2).i_k_star, lambda s: s**2 + s),
    ("i3star", lambda q, s: moments(q, s, 3).i_k_star, lambda s: s**3 + 3 * s**2 + s),
    ("c2star", lambda q, s: c_k_star(q, (s,)), lambda s: s**2 + s),
])
@pytest.mark.parametrize("kind, options", [("uniform_random", {}),
                                           ("kronecker", {"alpha": 0.7548776662466927})])
def test_sweep_rows_of_each_family(stat, statistic, target, kind, options):
    # each row is the library's statistic of the generated sequence, and
    # the target its Poissonian closed form: (2s)^(k-1), sum_m S(k,m)
    # (2s)^(m-1), s^k, the Poisson moments s^2 + s and s^3 + 3s^2 + s
    # (bell_prediction), and s^2 + s; s = 1.5 makes every one exact
    s, sizes = 1.5, [40, 300]
    rows = sweep_rows(stat, s, sizes, kind, 1729, **options)
    spec = seqgen.GeneratorSpec(kind=kind, seed=1729 if kind == "uniform_random" else None,
                                **options)
    for (n, v, tgt, dev), size in zip(rows, sizes):
        assert n == size and tgt == target(s)
        assert v == statistic(seqgen.generate(spec, n), s) and dev == abs(v - tgt)
    if stat.startswith("i") and stat.endswith("star"):
        assert rows[0][2] == bell_prediction(int(stat[1]), s)


def test_sweep_rows_deterministic():
    a = rows_to_csv(sweep_rows("r2star", 1.0, [500, 2000], "uniform_random", 5))
    b = rows_to_csv(sweep_rows("r2star", 1.0, [500, 2000], "uniform_random", 5))
    assert a == b


def test_verify_quick_passes(capsys):
    assert main(["verify", "--seed", "1729"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--seed", "1729", "--json", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["schema"] == "corrkit/1"
    assert payload["ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))  # each check appears exactly once


_THREE = PointSequence([0.1, 0.2, 0.6])  # at radius 1 the one window pair, both ways


# a call of the library, or the argv of a CLI command on the three points
@pytest.mark.parametrize("call, message", [
    (lambda: r_k_star(_THREE, 1.0), "a scalar scale needs an explicit k"),
    (lambda: r_k_distinct(_THREE, (1.0, 1.0), k=4), "expected 3 scales, got 2"),
    (lambda: r_k_testfn(_THREE, lambda ys: np.zeros(3), 1.0, 2),
     "f must map an (2, 1) array to 2 weights, got shape (3,)"),
    (lambda: brute_force_r_k(_THREE), "give exactly one of scales, boxes, testfn"),
    (lambda: brute_force_r_k(_THREE, scales=(1.0,), boxes=[(-1.0, 1.0)]),
     "give exactly one of scales, boxes, testfn"),
    (lambda: brute_force_r_k(_THREE, testfn=lambda ys: ys[:, 0], support_radius=1.0),
     "testfn mode needs k and support_radius"),
    (lambda: metric_r3_experiment(integer_range(32), 0.5, 32, 0, 0), "trials must be >= 1"),
    (lambda: integer_range(0), "n must be >= 1"),
    (lambda: seqgen.polynomial(5, 0.3, 0), "degree must be >= 1"),
    (lambda: order_comparison_threshold(1), "order must be >= 2"),
    (lambda: c_k_star_local(_THREE, 1.0, 2, (0.5, 0.5)), "interval must satisfy 0 <= lo < hi <= 1"),
    (["corr", "--k", "2", "--box=1:2:3"], "box '1:2:3' must look like a:b"),
    (["cstar", "--k", "3", "--s", "1,2", "--interval", "0:0.5"],
     "localized average needs equal scales"),
])
def test_refusals_name_their_parameter(tmp_path, capsys, call, message):
    if callable(call):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call()
        return
    path = tmp_path / "pts.txt"
    write_points(path, _THREE)
    assert main([call[0], "--input", str(path), *call[1:]]) == 2
    assert capsys.readouterr().err == f"parameter error: {message}\n"


def test_verify_checks_without_a_tolerance():
    from corrkit.verify import CHECK_CATALOG, DEFAULT_SEED
    from corrkit.seqgen import trial_rng

    # the grid offsets against Fractions, and Chebyshev's inequality on
    # window counts as exact ints
    for index, name in ((0, "grid_offset_exact"), (13, "power_mean_product_inequality")):
        check = CHECK_CATALOG[index][1](trial_rng(DEFAULT_SEED, index), "quick")
        assert (check.name, check.status, check.tolerance) == (name, "pass", "exact")


def test_full_tier_checks_do_not_fail():
    from corrkit.verify import CHECK_CATALOG, DEFAULT_SEED
    from corrkit.seqgen import trial_rng

    # the checks only `verify --full` runs, each on its catalog index's stream, as run_verify does
    checks = [fn(trial_rng(DEFAULT_SEED, index), "full")
              for index, (tier, fn) in enumerate(CHECK_CATALOG) if tier == "full"]
    assert [(c.name, c.status) for c in checks] == [
        ("localized_lower_bound_trend", "report"), ("max_window_count_log_bound", "report"),
        ("density_functional_trend", "pass"), ("nonuniform_pair_correlation_excess", "pass")]


def test_verify_catalog_complete():
    from corrkit.verify import CHECK_CATALOG

    # 4 core + 3 seqgen + 8 correlations + 3 averaged + 5 intervalstats
    # + 4 arithmetic + 2 distribution + 3 cli-level invariants
    assert len(CHECK_CATALOG) == 32
    tiers = {t for t, _ in CHECK_CATALOG}
    assert tiers == {"quick", "full"}


def test_consistency_error_exit_code(points_file, capsys, monkeypatch):
    from corrkit import core

    windows = core.self_window_blocks

    def one_too_many(grid, arcs):  # every window the profile reads ends one position late
        for b, wins in windows(grid, arcs):
            yield b, [(start, end + 1) for start, end in wins]

    monkeypatch.setattr(core, "self_window_blocks", one_too_many)
    assert main(["moments", "--input", str(points_file), "--s", "2.0", "--k", "2"]) == 5
    err = capsys.readouterr().err
    assert "consistency" in err and "mass" in err
