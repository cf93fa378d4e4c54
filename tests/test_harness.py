"""Experiment harness and CLI: configs, sweeps, CSV output, exit codes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cachesim import (
    CSV_COLUMNS,
    ComparisonTable,
    ExperimentConfig,
    LRUPolicy,
    Policy,
    SetAssociativeConfig,
    compare,
    ingest_address_trace,
    ingest_brightkite,
    opt_cost,
    perfect_nrt,
    run,
    save_bundle_csv,
    simulate,
)
from cachesim import cli, harness, oracle
from cachesim.harness import _OptCache, parse_pred_spec, parse_sweep, resolve_out
from cachesim.policy import POLICY_FACTORIES
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
    expected = 0
    expected_opt = 0
    for _user, tr in ingest_brightkite(text, cache_size=10):
        res = simulate(LRUPolicy(), tr, 10)
        expected += res.misses
        expected_opt += res.opt_misses
    table = run(ExperimentConfig(trace=DATA / "brightkite_sample.tsv",
                                 format="brightkite", k=10))
    row = table.rows[0]
    assert (row["misses"], row["opt"]) == (expected, expected_opt)
    assert len(table.results) == 3  # users 101, 202, and the boundary user 404


def test_address_rows_sum_over_sets():
    text = (DATA / "addr_sample.txt").read_text()
    sets = ingest_address_trace(text, SetAssociativeConfig(ways=16))
    expected = sum(simulate(LRUPolicy(), tr, 16).misses for tr in sets.values())
    table = run(ExperimentConfig(trace=DATA / "addr_sample.txt", format="addr"))
    assert table.rows[0]["misses"] == expected
    assert len(table.results) == len(sets) == 3


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
    table = run(ExperimentConfig(trace=DATA / "brightkite_sample.tsv", format="brightkite",
                                 k=10, policy="guard:lrb", pred="binary",
                                 sweep="p_flip=0,0.5,1", seeds=[0, 1]))
    users = len(table.results) // 6
    assert users == 3
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


def test_config_validation(plain_trace):
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


def test_compare_tabulates_mean_ratios(plain_trace):
    table = compare(
        ExperimentConfig(trace=plain_trace, k=2, policy="lru"),
        ExperimentConfig(trace=plain_trace, k=2, policy="blind_oracle", pred="perfect"),
    )
    assert isinstance(table, ComparisonTable)
    assert table.columns == ["none", "perfect"]
    assert [name for name, _ in table.rows] == ["lru", "blind_oracle"]
    rendered = table.render()
    assert "policy" in rendered and "1.0000" in rendered


def test_compare_rejects_mismatched_axes(plain_trace):
    with pytest.raises(ValueError):
        compare(
            ExperimentConfig(trace=plain_trace, k=2),
            ExperimentConfig(trace=plain_trace, k=3),
        )


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
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"trace": str(plain_trace), "surprise": 1}))
    assert cli.main(["--config", str(bad_cfg)]) == 1
    assert cli.main(["--trace", str(plain_trace), "--seeds", "0"]) == 1
    capsys.readouterr()


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
