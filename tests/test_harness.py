"""Experiment harness and CLI: configs, sweeps, CSV output, exit codes."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from cachesim import (
    ExperimentConfig,
    Policy,
    ingest_address_trace,
    ingest_brightkite,
    opt_cost,
    perfect_nrt,
    run,
    save_bundle_csv,
    simulate,
)
from cachesim import cli, harness, oracle
from cachesim.harness import CSV_COLUMNS, _OptCache, parse_pred_spec, parse_sweep, resolve_out
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


def test_csv_predictor_without_path_is_an_input_error(plain_trace, capsys):
    with pytest.raises(ValueError, match="path"):
        ExperimentConfig(trace=plain_trace, pred="csv").validate()
    assert cli.main(["--trace", str(DATA / "addr_sample.txt"), "--pred", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "'path'" in captured.err
    assert "Traceback" not in captured.err


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


def test_phase_companion_file(plain_trace, tmp_path):
    out = tmp_path / "res.csv"
    run(ExperimentConfig(trace=plain_trace, k=2, policy="guard:lru",
                         out=out, phase_stats=True))
    companion = Path(str(out) + ".phases.csv")
    text = companion.read_text()
    assert text.startswith("# trace seed=0")
    assert "phase,c_q,n_q,o_q,n_q_new,n_q_old" in text
    assert out.read_text().startswith(",".join(CSV_COLUMNS))


def test_out_dir_roots_bare_filenames(plain_trace, tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "outputs"))
    run(ExperimentConfig(trace=plain_trace, k=2, out="bare.csv"))
    assert (tmp_path / "outputs" / "bare.csv").exists()
    assert resolve_out("bare.csv") == tmp_path / "outputs" / "bare.csv"
    nested = tmp_path / "elsewhere" / "res.csv"
    assert resolve_out(nested) == nested


def test_opt_cache_persists_when_directed(plain_trace, tmp_path, monkeypatch):
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    table = run(ExperimentConfig(trace=plain_trace, k=2))
    stored = json.loads((tmp_path / "opt_cache.json").read_text())
    assert list(stored.values()) == [table.rows[0]["opt"]]
    fresh = _OptCache()
    tr = parse_plain_trace(PLAIN)
    assert fresh.get(tr, 2) == table.rows[0]["opt"]


def test_opt_cache_ignores_unversioned_entries(plain_trace, tmp_path, monkeypatch):
    # an entry keyed as before the version prefix, holding a wrong count
    tr = parse_plain_trace(PLAIN)
    (tmp_path / "opt_cache.json").write_text(json.dumps({f"{tr.digest}:2": 999}))
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    table = run(ExperimentConfig(trace=plain_trace, k=2))
    assert table.rows[0]["opt"] == opt_cost(tr, 2) != 999
    stored = json.loads((tmp_path / "opt_cache.json").read_text())
    assert stored[f"v1:{tr.digest}:2"] == opt_cost(tr, 2)


def test_opt_cache_drops_entries_of_other_schemas(plain_trace, tmp_path, monkeypatch):
    tr = parse_plain_trace(PLAIN)
    kept = {"v1:0123:3": 7}  # another trace's count under the current schema
    (tmp_path / "opt_cache.json").write_text(json.dumps(
        {f"{tr.digest}:2": 999, f"v0:{tr.digest}:2": 998, **kept}))
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    run(ExperimentConfig(trace=plain_trace, k=2))
    stored = json.loads((tmp_path / "opt_cache.json").read_text())
    assert stored == {**kept, f"v1:{tr.digest}:2": opt_cost(tr, 2)}


@pytest.mark.parametrize("count", ["seven", -3, 2.5, True])
def test_opt_cache_drops_counts_that_are_not_positive_integers(
        count, plain_trace, tmp_path, monkeypatch):
    tr = parse_plain_trace(PLAIN)
    key = f"v1:{tr.digest}:2"
    (tmp_path / "opt_cache.json").write_text(json.dumps({key: count}))
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    table = run(ExperimentConfig(trace=plain_trace, k=2))
    assert table.rows[0]["opt"] == opt_cost(tr, 2)
    stored = json.loads((tmp_path / "opt_cache.json").read_text())[key]
    assert type(stored) is int and stored == opt_cost(tr, 2)


@pytest.mark.parametrize("corrupt", ["{not json", "[1]"])
def test_corrupt_opt_cache_warns_and_is_replaced(corrupt, plain_trace, tmp_path, monkeypatch):
    cache_file = tmp_path / "opt_cache.json"
    cache_file.write_text(corrupt)
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path))
    with pytest.warns(RuntimeWarning, match="opt_cache.json"):
        monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    table = run(ExperimentConfig(trace=plain_trace, k=2))
    assert list(json.loads(cache_file.read_text()).values()) == [table.rows[0]["opt"]]
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


def test_opt_cache_is_written_once_per_run(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    writes = []
    replace = harness.os.replace

    def counted(src, dst):
        writes.append(dst)
        replace(src, dst)

    monkeypatch.setattr(harness.os, "replace", counted)
    config = ExperimentConfig(trace=DATA / "brightkite_sample.tsv", format="brightkite",
                              k=10, seeds=[0, 1])
    run(config)
    assert writes == [tmp_path / "opt_cache.json"]
    assert len(json.loads(writes[0].read_text())) == 3  # one optimum per user
    run(config)  # every optimum is known: nothing to write
    assert len(writes) == 1


def test_unwritable_opt_cache_warns_and_keeps_results(plain_trace, tmp_path, monkeypatch):
    monkeypatch.delenv(harness.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    config = dict(trace=plain_trace, k=2, policy="guard:marker", seeds=[0, 1])
    uncached = run(ExperimentConfig(**config))
    not_a_dir = tmp_path / "regular_file"
    not_a_dir.write_text("")
    monkeypatch.setenv(harness.CACHE_DIR_ENV, str(not_a_dir))
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    with pytest.warns(RuntimeWarning, match="regular_file"):
        table = run(ExperimentConfig(**config))
    assert _strip_wall(table.to_csv()) == _strip_wall(uncached.to_csv())


def test_label_sweep_runs_belady_once_per_trace_and_k(monkeypatch):
    calls = []
    belady_simulate = oracle.belady_simulate

    def counted(trace, k, **kwargs):
        calls.append(k)
        return belady_simulate(trace, k, **kwargs)

    monkeypatch.delenv(harness.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(harness, "_opt_cache", _OptCache())
    monkeypatch.setattr(oracle, "belady_simulate", counted)
    config = ExperimentConfig(trace=DATA / "brightkite_sample.tsv", format="brightkite",
                              k=10, policy="guard:lrb", pred="binary",
                              sweep="p_flip=0,0.5,1", seeds=[0, 1])
    users = len(harness.load_traces(config))
    assert users == 3
    assert len(run(config).rows) == 9  # (2 seeds + mean) per sweep point
    # one optimum and one set of labels per user, however many replays
    assert len(calls) == 2 * users


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
    # a bad predictor is rejected before the trace, which does not exist, is read
    for pred, sweep, match in BAD_PREDICTORS:
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(trace=tmp_path / "missing.txt", pred=pred, sweep=sweep).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trace=plain_trace, format="exotic").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trace=plain_trace, k=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trace=plain_trace, seeds=[]).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trace=plain_trace, policy="made_up").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(trace=plain_trace, pred="made_up").validate()
    assert ExperimentConfig(trace=plain_trace, format="citi").resolved_k() == 100


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
