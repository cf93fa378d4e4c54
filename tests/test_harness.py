"""Experiment harness and CLI: configs, sweeps, CSV output, exit codes."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from cachesim import (
    ExperimentConfig,
    Policy,
    ingest_address_trace,
    ingest_brightkite,
    ingest_citibike,
    perfect_nrt,
    run,
    save_bundle_csv,
    simulate,
)
from cachesim import cli, harness, oracle
from cachesim.harness import CSV_COLUMNS, parse_pred_spec, parse_sweep, resolve_out
from cachesim.policy import POLICY_FACTORIES, LRUPolicy
from cachesim.trace import parse_plain_trace

DATA = Path(__file__).parent / "data"

PLAIN = "a\nb\nc\na\nb\nc\n# comment\nd\na\nb\n\nc\nd\na\n"


@pytest.fixture
def plain_trace(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text(PLAIN)
    return path


def test_run_produces_schema_rows_and_mean(plain_trace):
    table = run(ExperimentConfig(trace=plain_trace, k=2, policy="marker", seeds=[0, 1, 2]))
    assert len(table.rows) == 4
    seed_rows = [r for r in table.rows if r["seed"] != "mean"]
    mean_row = table.rows[-1]
    assert mean_row["seed"] == "mean"
    assert mean_row["misses"] == pytest.approx(
        sum(r["misses"] for r in seed_rows) / 3
    )
    assert mean_row["ratio"] == pytest.approx(
        sum(r["ratio"] for r in seed_rows) / 3
    )
    for row in table.rows:
        assert list(row) == CSV_COLUMNS


def _strip_wall(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def test_runs_are_reproducible_up_to_wall_time(plain_trace, tmp_path):
    config = dict(trace=plain_trace, k=2, policy="guard:marker",
                  pred="nrt:sigma=1.0", seeds=[0, 1, 2])
    a = run(ExperimentConfig(**config)).to_csv()
    b = run(ExperimentConfig(**config)).to_csv()
    assert _strip_wall(a) == _strip_wall(b)
    assert a.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_sweep_rows_and_exact_ratio_at_zero_noise(plain_trace):
    table = run(ExperimentConfig(
        trace=plain_trace, k=2, policy="blind_oracle",
        pred="nrt", sweep="sigma=0,2", seeds=[0, 1],
    ))
    assert len(table.rows) == 6  # (2 seeds + mean) per sweep point
    ratios = table.mean_ratios()
    assert set(ratios) == {"0", "2"}
    assert ratios["0"] == 1.0


def test_predictor_errors_reported_in_rows(plain_trace):
    table = run(ExperimentConfig(trace=plain_trace, k=2, policy="blind_oracle",
                                 pred="perfect"))
    row = table.rows[0]
    assert row["eta_t"] == 0.0 and row["eta_b"] == 0
    none_row = run(ExperimentConfig(trace=plain_trace, k=2)).rows[0]
    assert none_row["eta_t"] is None
    assert ",,," in run(ExperimentConfig(trace=plain_trace, k=2)).to_csv()


def test_csv_predictor_source(plain_trace, tmp_path):
    tr = parse_plain_trace(PLAIN)
    bundle_path = tmp_path / "preds.csv"
    save_bundle_csv(perfect_nrt(tr), bundle_path)
    table = run(ExperimentConfig(trace=plain_trace, k=2, policy="blind_oracle",
                                 pred=f"csv:path={bundle_path}"))
    assert table.rows[0]["ratio"] == 1.0
    # the path may also come from the sweep
    table = run(ExperimentConfig(trace=plain_trace, k=2, policy="blind_oracle",
                                 pred="csv", sweep=f"path={bundle_path}"))
    assert table.rows[0]["ratio"] == 1.0


def test_csv_predictor_without_path_is_an_input_error(tmp_path, capsys):
    # refused before the trace, which does not exist, is read
    with pytest.raises(ValueError, match="path"):
        run(ExperimentConfig(trace=tmp_path / "missing.txt", pred="csv"))
    assert cli.main(["--trace", str(DATA / "addr_sample.txt"), "--pred", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "'path'" in captured.err
    assert "Traceback" not in captured.err


def test_csv_predictor_on_a_multi_trace_source_is_an_input_error(tmp_path, capsys):
    # two users of 30 check-ins each and 30 predictions: one file cannot
    # belong to both sub-traces, so it is refused before the dump is read
    dump = tmp_path / "checkins.tsv"
    dump.write_text("".join(f"u{u}\t2010-01-01T00:00:{t:02d}Z\t39.7\t-104.9\tloc{t % 8}\n"
                            for u in range(2) for t in range(30)))
    preds = tmp_path / "preds.csv"
    save_bundle_csv(perfect_nrt(parse_plain_trace("\n".join(map(str, range(30))))), preds)
    argv = ["--trace", str(dump), "--format", "brightkite", "--k", "3",
            "--policy", "blind_oracle", "--pred", f"csv:path={preds}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'brightkite'" in err and "sub-traces" in err, err
    with pytest.raises(ValueError, match="'addr' format splits into sub-traces"):
        run(ExperimentConfig(trace=DATA / "addr_sample.txt", format="addr",
                             policy="blind_oracle", pred=f"csv:path={preds}"))


def test_brightkite_rows_sum_over_users():
    text = (DATA / "brightkite_sample.tsv").read_text()
    users = ingest_brightkite(text, cache_size=10)
    assert len(users) == 3  # users 101, 202, and the boundary user 404
    expected = 0
    expected_opt = 0
    for _user, tr in users:
        res = simulate(LRUPolicy(), tr, 10)
        expected += res.misses
        expected_opt += res.opt_misses
    table = run(ExperimentConfig(trace=DATA / "brightkite_sample.tsv",
                                 format="brightkite", k=10))
    row = table.rows[0]
    assert (row["misses"], row["opt"]) == (expected, expected_opt)


def test_address_rows_sum_over_sets():
    text = (DATA / "addr_sample.txt").read_text()
    sets = ingest_address_trace(text, 16)
    assert len(sets) == 3
    expected = sum(simulate(LRUPolicy(), tr, 16).misses for tr in sets.values())
    table = run(ExperimentConfig(trace=DATA / "addr_sample.txt", format="addr"))
    assert table.rows[0]["misses"] == expected


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark, as some editors save files
FORMATS = {"plain": None, "addr": "addr_sample.txt",
           "brightkite": "brightkite_sample.tsv", "citi": "citibike_sample.csv"}


def _loaded(path, fmt):
    return [(label, tr.pages) for label, tr in
            harness.load_traces(ExperimentConfig(trace=path, format=fmt))]


@pytest.mark.parametrize("fmt", FORMATS)
def test_load_traces_skips_a_byte_order_mark(fmt, plain_trace, tmp_path):
    # before, the mark became part of the first token: `a b a b` read as
    # pages [0, 1, 2, 1], an address or check-in file failed or gained a user
    src = DATA / FORMATS[fmt] if FORMATS[fmt] else plain_trace
    marked = tmp_path / f"bom-{src.name}"
    marked.write_bytes(BOM + src.read_bytes())
    assert _loaded(marked, fmt) == _loaded(src, fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_load_traces_without_a_byte_order_mark_reads_as_before(fmt, plain_trace):
    src = DATA / FORMATS[fmt] if FORMATS[fmt] else plain_trace
    text, k = src.read_text(encoding="utf-8"), harness.DEFAULT_K[fmt]
    if fmt == "plain":
        expected = [("trace", parse_plain_trace(text))]
    elif fmt == "addr":
        expected = [(f"set:{s}", tr) for s, tr in ingest_address_trace(text, k).items()]
    elif fmt == "brightkite":
        expected = [(f"user:{u}", tr) for u, tr in ingest_brightkite(text, cache_size=k)]
    else:
        expected = [("citi", ingest_citibike(text))]
    assert _loaded(src, fmt) == [(label, tr.pages) for label, tr in expected]


def test_only_a_leading_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(BOM + "a\n\ufeffa\na\n".encode())
    assert _loaded(path, "plain") == [("trace", [0, 1, 0])]


def test_phase_companion_file(plain_trace, tmp_path):
    out = tmp_path / "res.csv"
    run(ExperimentConfig(trace=plain_trace, k=2, policy="guard:lru",
                         out=out, phase_stats=True))
    companion = Path(str(out) + ".phases.csv")
    text = companion.read_text()
    assert text.startswith("# trace seed=0")
    assert "phase,c_q,n_q,o_q,n_q_new,n_q_old" in text
    assert out.read_text().startswith(",".join(CSV_COLUMNS))


def test_phase_companion_belongs_to_the_last_run(tmp_path):
    out = tmp_path / "res.csv"
    companion = Path(str(out) + ".phases.csv")
    args = ["--trace", str(DATA / "brightkite_sample.tsv"), "--format", "brightkite",
            "--phase-stats", "--out", str(out)]
    assert cli.main(args + ["--policy", "guard:lru"]) == 0
    assert companion.read_text().startswith("# user:")
    # an unguarded run has no phases: the guard's counters must not stay
    # beside its rows
    assert cli.main(args + ["--policy", "lru"]) == 0
    assert out.read_text().splitlines()[1].startswith("lru,")
    assert not companion.exists()
    assert cli.main(args + ["--policy", "guard:lru"]) == 0
    assert companion.read_text().startswith("# user:")


@pytest.mark.parametrize("policy, phase_stats", [
    ("lru", True),  # unguarded: no counters to write
    ("guard:lru", False),  # counters not asked for
])
def test_a_run_without_phases_removes_a_stale_companion(plain_trace, tmp_path,
                                                        policy, phase_stats):
    out = tmp_path / "res.csv"
    companion = Path(str(out) + ".phases.csv")
    companion.write_text("# trace seed=0\nphase,c_q,n_q,o_q,n_q_new,n_q_old\n")
    run(ExperimentConfig(trace=plain_trace, k=2, policy=policy,
                         out=out, phase_stats=phase_stats))
    assert out.read_text().splitlines()[1].startswith(f"{policy},")
    assert not companion.exists()


def test_a_run_without_phases_makes_no_companion(plain_trace, tmp_path):
    out = tmp_path / "res.csv"
    run(ExperimentConfig(trace=plain_trace, k=2, policy="lru", out=out, phase_stats=True))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv", "trace.txt"]


def test_out_dir_roots_bare_filenames(plain_trace, tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "outputs"))
    run(ExperimentConfig(trace=plain_trace, k=2, out="bare.csv"))
    assert (tmp_path / "outputs" / "bare.csv").exists()
    assert resolve_out("bare.csv") == tmp_path / "outputs" / "bare.csv"
    nested = tmp_path / "elsewhere" / "res.csv"
    assert resolve_out(nested) == nested


def test_label_sweep_runs_belady_once_per_trace_and_k(monkeypatch):
    calls = []
    belady_simulate = oracle.belady_simulate

    def counted(trace, k, **kwargs):
        calls.append(k)
        return belady_simulate(trace, k, **kwargs)

    monkeypatch.setattr(oracle, "belady_simulate", counted)
    config = ExperimentConfig(trace=DATA / "brightkite_sample.tsv", format="brightkite",
                              k=10, policy="guard:lrb", pred="binary",
                              sweep="p_flip=0,0.5,1", seeds=[0, 1])
    users = len(harness.load_traces(config))
    assert users == 3
    assert len(run(config).rows) == 9  # (2 seeds + mean) per sweep point
    # one optimum run per user gives its misses and its labels, however
    # many replays
    assert len(calls) == users


def test_parse_pred_spec():
    assert parse_pred_spec("nrt:sigma=0.5") == ("nrt", {"sigma": "0.5"})
    assert parse_pred_spec("perfect") == ("perfect", {})
    for bad in ("nrt:sigma", ":x=1", "nrt:=3"):
        with pytest.raises(ValueError):
            parse_pred_spec(bad)


def test_parse_sweep():
    assert parse_sweep("sigma=0,0.5, 1") == ("sigma", ["0", "0.5", "1"])
    for bad in ("sigma", "=1,2", "sigma="):
        with pytest.raises(ValueError):
            parse_sweep(bad)


# Predictor specs and sweeps whose parameters the predictor does not take or
# cannot parse, with what the error names.
BAD_PREDICTORS = [
    ("nrt:sigmaa=5", None, "'sigmaa'"),
    ("nrt", "sigmaa=0,5", "'sigmaa'"),
    ("perfect:sigma=3", None, "no parameters"),
    ("none", "sigma=0,5", "no parameters"),
    ("nrt:sigma=abc", None, "'sigma'.*'abc'"),
    ("nrt:sigma=nan", None, "'sigma'.*'nan'"),
    ("pleco:alpha=inf", None, "'alpha'.*'inf'"),
    ("nrt", "sigma=0,inf", "'sigma'.*'inf'"),
]


def test_config_validation(plain_trace, tmp_path):
    # every bad setting is refused before the trace, which does not exist, is
    # read: reading it first would raise FileNotFoundError, not ValueError
    missing = tmp_path / "missing.txt"
    for pred, sweep, match in BAD_PREDICTORS:
        with pytest.raises(ValueError, match=match):
            run(ExperimentConfig(trace=missing, pred=pred, sweep=sweep))
    with pytest.raises(ValueError, match="unknown trace format"):
        run(ExperimentConfig(trace=missing, format="exotic"))
    with pytest.raises(ValueError, match="k must be >= 1"):
        run(ExperimentConfig(trace=missing, k=0))
    with pytest.raises(ValueError, match="seeds must be nonempty"):
        run(ExperimentConfig(trace=missing, seeds=[]))
    with pytest.raises(ValueError, match="unknown policy spec"):
        run(ExperimentConfig(trace=missing, policy="made_up"))
    with pytest.raises(ValueError, match="unknown predictor"):
        run(ExperimentConfig(trace=missing, pred="made_up"))
    with pytest.raises(FileNotFoundError):
        run(ExperimentConfig(trace=missing))
    assert ExperimentConfig(trace=plain_trace, format="citi").resolved_k() == 100


def test_resolved_k_rejects_a_fraction():
    # a cache of 2.5 slots never filled: `len(cache) == k` never held
    with pytest.raises(ValueError, match="k must be a whole number, got 2.5"):
        ExperimentConfig(trace="x", k=2.5).resolved_k()
    assert ExperimentConfig(trace="x", k=2.0).resolved_k() == 2
    assert ExperimentConfig(trace="x", k=np.int64(3)).resolved_k() == 3


# --- command line ------------------------------------------------------------


def test_cli_happy_path(plain_trace, tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = cli.main([
        "--trace", str(plain_trace), "--k", "2", "--policy", "guard:blind_oracle",
        "--pred", "nrt:sigma=0.5", "--seeds", "2", "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == 0
    assert "mean_ratio=" in captured and f"wrote {out}" in captured
    body = out.read_text().splitlines()
    assert body[0] == ",".join(CSV_COLUMNS)
    assert len(body) == 4  # two seed rows + mean + header


def test_cli_config_file_with_flag_overrides(plain_trace, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "trace": str(plain_trace), "k": 2, "policy": "lru", "seeds": 2,
    }))
    assert cli.main(["--config", str(cfg), "--policy", "marker"]) == 0
    assert "policy=marker" in capsys.readouterr().out


def test_cli_config_file_may_start_with_a_byte_order_mark(plain_trace, tmp_path, capsys):
    # before, json rejected it: "Unexpected UTF-8 BOM"
    cfg = tmp_path / "exp.json"
    cfg.write_bytes(BOM + json.dumps({"trace": str(plain_trace), "k": 2}).encode())
    assert cli.main(["--config", str(cfg)]) == 0
    assert "policy=lru" in capsys.readouterr().out


def test_cli_error_exits(plain_trace, tmp_path, capsys):
    assert cli.main(["--policy", "lru"]) == 1  # no trace given
    assert cli.main(["--trace", str(tmp_path / "missing.txt")]) == 1
    assert cli.main(["--trace", str(plain_trace), "--policy", "bogus"]) == 1
    capsys.readouterr()
    assert cli.main(["--trace", str(plain_trace), "--policy", "guard:guard:lru"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"trace": str(plain_trace), "surprise": 1}))
    assert cli.main(["--config", str(bad_cfg)]) == 1
    assert cli.main(["--trace", str(plain_trace), "--seeds", "0"]) == 1
    capsys.readouterr()
    bad_cfg.write_text(json.dumps({"trace": str(plain_trace), "seeds": [0, -1]}))
    assert cli.main(["--config", str(bad_cfg)]) == 1
    assert "a seed must be a non-negative integer, got -1" in capsys.readouterr().err
    for pred, sweep, match in BAD_PREDICTORS:
        argv = ["--trace", str(plain_trace), "--pred", pred]
        assert cli.main(argv + (["--sweep", sweep] if sweep else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and re.search(match, err), err
    # malformed flags keep argparse's message but exit 1: 2 means an invariant broke
    for argv in (["--k", "abc"], ["--format", "nope"], ["--no-such-flag"]):
        assert cli.main(["--trace", str(plain_trace)] + argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: cachesim") and "cachesim: error:" in err, err
    assert cli.main(["--help"]) == 0


# --config values of the wrong type, with what the error names
BAD_CONFIG_VALUES = [
    ({"k": "2"}, "'k' must be an integer"),
    ({"k": True}, "'k' must be an integer"),
    ({"k": 2.0}, "'k' must be an integer"),
    ({"policy": 5}, "'policy' must be a string"),
    ({"pred": None}, "'pred' must be a string"),
    ({"trace": ["t.txt"]}, "'trace' must be a string"),
    ({"seeds": "3"}, "'seeds' must be an integer or a list of integers"),
    ({"seeds": True}, "'seeds' must be an integer or a list of integers"),
    ({"seeds": 2.0}, "'seeds' must be an integer or a list of integers"),
    ({"seeds": [0, "1"]}, "'seeds' must be an integer or a list of integers"),
    ({"seeds": [0, False]}, "'seeds' must be an integer or a list of integers"),
    ({"phase_stats": "yes"}, "'phase_stats' must be true or false"),
    ({"assert_invariants": 1}, "'assert_invariants' must be true or false"),
]


@pytest.mark.parametrize("values,match", BAD_CONFIG_VALUES)
def test_cli_config_values_are_type_checked(values, match, plain_trace, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"trace": str(plain_trace), "k": 2, **values}))
    assert cli.main(["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and match in err, err


def test_cli_config_reads_null_as_the_default_where_the_default_is_none(
        plain_trace, tmp_path, capsys):
    # a config written straight from the dataclass holds null for k, sweep and out
    cfg = tmp_path / "exp.json"
    values = dataclasses.asdict(ExperimentConfig(trace=str(plain_trace), policy="lru"))
    assert [key for key, value in values.items() if value is None] == ["k", "sweep", "out"]
    cfg.write_text(json.dumps(values))
    assert cli.main(["--config", str(cfg)]) == 0
    assert cli.main(["--trace", str(plain_trace), "--policy", "lru"]) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
    for key in ("trace", "seeds", "format", "policy", "phase_stats"):
        cfg.write_text(json.dumps(dict(values, **{key: None})))
        assert cli.main(["--config", str(cfg)]) == 1
        assert f"config key {key!r} must be" in capsys.readouterr().err, key


def test_cli_config_checks_every_flag_it_can_hold():
    # the checked keys come from the parser: every config field is a flag
    dests = {action.dest for action in cli._build_parser()._actions}
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} <= dests


def test_cli_config_values_of_the_right_type_run(plain_trace, tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "trace": str(plain_trace), "format": "plain", "k": 2, "policy": "guard:lru",
        "pred": "none", "seeds": [0, 3], "out": str(tmp_path / "res.csv"),
        "phase_stats": True, "assert_invariants": False,
    }))
    assert cli.main(["--config", str(cfg)]) == 0
    assert (tmp_path / "res.csv.phases.csv").exists()
    cfg.write_text(json.dumps([str(plain_trace)]))
    assert cli.main(["--config", str(cfg)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_cli_non_finite_numbers_are_input_errors(plain_trace, tmp_path, capsys):
    bundle = tmp_path / "preds.csv"
    bundle.write_text("index,predicted_nrt\n1,inf\n")
    rides = tmp_path / "rides.csv"
    rides.write_text("tripduration,start station id\n60,12\n61,inf\n")
    cases = [
        (["--trace", str(plain_trace), "--policy", "blind_oracle",
          "--pred", f"csv:path={bundle}"], "row 2"),
        (["--trace", str(rides), "--format", "citi"], "row 3"),
        (["--trace", str(plain_trace), "--policy", "switch_det(lru,marker,nan)"], "bound"),
        (["--trace", str(plain_trace), "--policy", "switch_det(lru,marker,inf)"], "bound"),
    ]
    for argv, match in cases:
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err, err


def test_cli_fractional_numbers_are_input_errors(plain_trace, tmp_path, capsys):
    bundle = tmp_path / "preds.csv"
    bundle.write_text("index,predicted_nrt\n1,2.7\n")
    rides = tmp_path / "rides.csv"
    rides.write_text("tripduration,start station id\n60,12\n61,12.7\n")
    cases = [
        (["--trace", str(plain_trace), "--policy", "blind_oracle",
          "--pred", f"csv:path={bundle}"], "row 2"),
        (["--trace", str(rides), "--format", "citi"], "row 3"),
    ]
    for argv, match in cases:
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and match in err and "whole number" in err, err


def test_cli_pleco_underflow_is_an_input_error(plain_trace, capsys):
    # finite, but every weight underflows to 0: an error line, not a traceback
    assert cli.main(["--trace", str(plain_trace), "--pred", "pleco:alpha=1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha=1000" in err and "offset=10" in err, err


class _StuckPolicy(Policy):
    """Deliberately broken base: names the first page even when shielded."""

    name = "stuck"

    def choose_victim(self, ctx, rng):
        return 0


def test_cli_invariant_failures_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(POLICY_FACTORIES, "stuck", _StuckPolicy)
    trace = tmp_path / "trap.txt"
    trace.write_text("a\nb\nc\nd\na\ne\n")
    argv = ["--trace", str(trace), "--k", "3", "--policy", "guard:stuck"]
    assert cli.main(argv + ["--assert-invariants"]) == 2
    assert cli.main(argv) == 1
    assert "invariant" in capsys.readouterr().err
