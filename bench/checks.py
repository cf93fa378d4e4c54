"""Checks of the program's outputs against computations made apart from it.

`expect` computes, from the generated inputs alone, what the checks compare
with; `check` returns one message per broken check for one pass. No check
compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from pathlib import Path

import inputs
import reference as ref


def _uniform(pages: list[int], seed: int, adversarial: bool) -> dict:
    out = {"opt": ref.belady_misses(pages, inputs.K_LARGE), "universe": len(set(pages))}
    if adversarial:
        truth = ref.next_use(pages)
        out["follower"], out["eta_t"] = {}, {}
        for pred, preds in (
            ("inverted", ref.inverted_predictions(pages)),
            ("sigma", ref.lognormal_predictions(pages, inputs.SIGMA_ADVERSARIAL, seed)),
        ):
            out["follower"][pred] = ref.follower_misses(pages, inputs.K_LARGE, preds)
            out["eta_t"][pred] = float(sum(abs(a - b) for a, b in zip(preds, truth)))
    return out


def expect(workload: str, data, seed: int) -> dict:
    if workload in ("matched-k100", "adversarial-k100"):
        return {"traces": [_uniform(pages, seed, workload == "adversarial-k100")
                           for pages in data]}
    if workload == "envelope-small-k":
        return {"traces": [
            {"k": k, "n": len(pages), "universe": len(set(pages)),
             "opt": ref.belady_misses(pages, k),
             "eta_t": float(sum(abs(a - b) for a, b in zip(
                 ref.inverted_predictions(pages), ref.next_use(pages)))),
             "bound": ref.robustness_bound(k)}
            for k, pages in data]}
    if workload == "cli-checkins":
        users = inputs.user_traces(data, inputs.CLI_K)
        per_user = {f"user:{u}": (ref.belady_misses(p, inputs.CLI_K), len(set(p)))
                    for u, p in users.items()}
        return {"users": per_user, "opt": sum(o for o, _ in per_user.values())}
    raise ValueError(f"unknown workload {workload!r}")


def _guarded(op: dict, k: int, universe: int, opt: int) -> list[str]:
    out = []
    if op["violations"]:
        out.append(f"{op['violations']} phase-counter violations")
    if op["misses"] != min(k, universe) + op["counted"]:
        out.append(f"misses {op['misses']} != min(k, U) + sum(n_q + o_q) = "
                   f"{min(k, universe) + op['counted']}")
    if op["misses"] < opt:
        out.append(f"misses {op['misses']} below the optimum {opt}")
    return out


def failed(op: dict) -> bool:
    """An operation that raised, or a CLI invocation that exited non-zero."""
    return "error" in op or op.get("exit", 0) != 0


def check(workload: str, exp: dict, ops: list[dict], outdir: Path) -> list[str]:
    """Messages for the broken checks among the operations that did not fail."""
    problems: list[str] = []

    def fail(op, msg):
        tags = " ".join(f"{key}={op[key]}" for key in ("spec", "pred", "trace", "seed", "sweep")
                        if key in op)
        problems.append(f"{tags}: {msg}")

    done = [op for op in ops if not failed(op)]
    if workload in ("matched-k100", "adversarial-k100"):
        k = inputs.K_LARGE
        for op in done:
            tr = exp["traces"][op["trace"]]
            opt = tr["opt"]
            if op["opt"] != opt:
                fail(op, f"optimum {op['opt']} != independent Belady {opt}")
            guarded = op["spec"].startswith("guard:")
            if workload == "matched-k100":
                if op["misses"] != opt:
                    fail(op, f"misses {op['misses']} != optimum {opt} under perfect predictions")
                if op["eta_t"] != 0:
                    fail(op, f"perfect predictions measured with eta_t {op['eta_t']}")
                if guarded and (op["redirects"] or op["max_guarded"]):
                    fail(op, "the guard intervened on identical decisions")
            else:
                if op["eta_t"] != tr["eta_t"][op["pred"]]:
                    fail(op, f"eta_t {op['eta_t']} != {tr['eta_t'][op['pred']]}")
                if not guarded and op["misses"] != tr["follower"][op["pred"]]:
                    fail(op, f"misses {op['misses']} != independent follower "
                             f"{tr['follower'][op['pred']]}")
            if guarded:
                for msg in _guarded(op, k, tr["universe"], opt):
                    fail(op, msg)
    elif workload == "envelope-small-k":
        cells: dict[tuple, list[float]] = defaultdict(list)
        for op in done:
            tr = exp["traces"][op["trace"]]
            if op["opt"] != tr["opt"]:
                fail(op, f"optimum {op['opt']} != independent Belady {tr['opt']}")
                continue
            for msg in _guarded(op, tr["k"], tr["universe"], tr["opt"]):
                fail(op, msg)
            if op["spec"] == "guard:blind_oracle" and op["eta_t"] != tr["eta_t"]:
                fail(op, f"eta_t {op['eta_t']} != {tr['eta_t']}")
            if op["spec"] == "guard:lrb" and op["eta_b"] != tr["n"]:
                fail(op, f"eta_b {op['eta_b']} != {tr['n']} with every label flipped")
            cells[(op["trace"], op["spec"])].append(op["misses"] / tr["opt"])
        for (idx, spec), ratios in cells.items():
            bound = exp["traces"][idx]["bound"]
            if sum(ratios) / len(ratios) > bound:
                problems.append(f"trace {idx} {spec}: mean ratio "
                                f"{sum(ratios) / len(ratios):.4f} > 2H_k+2 = {bound:.4f}")
    elif workload == "cli-checkins":
        sweeps = {s[0]: s for s in inputs.CLI_SWEEPS}
        for op in done:
            problems.extend(_check_csv(sweeps[op["sweep"]], exp, outdir))
    return problems


def _check_csv(sweep, exp: dict, outdir: Path) -> list[str]:
    name, policy, pred, _, values = sweep
    path = outdir / f"{name}.csv"
    rows = list(csv.DictReader(path.read_text().splitlines()))
    seeds = [str(s) for s in range(inputs.CLI_SEEDS)]
    want = [(v, s) for v in values for s in seeds + ["mean"]]
    got = [(r["param"], r["seed"]) for r in rows]
    if got != want:
        return [f"{path.name}: rows {got} != {want}"]
    problems = []
    misses_of = {}
    for r in rows:
        where = f"{path.name} param={r['param']} seed={r['seed']}"
        misses, opt, ratio = float(r["misses"]), float(r["opt"]), float(r["ratio"])
        if (r["policy"], r["predictor"]) != (policy, pred):
            problems.append(f"{where}: policy/predictor {r['policy']}/{r['predictor']}")
        if opt != exp["opt"]:
            problems.append(f"{where}: opt {r['opt']} != independent Belady sum {exp['opt']}")
        if abs(ratio - misses / opt) > 1e-5 * ratio:
            problems.append(f"{where}: ratio {r['ratio']} != misses/opt {misses / opt}")
        if r["param"] == "0" and (r["ratio"], r["eta_t"], r["eta_b"], r["eta_f"]) != ("1", "0", "0", "0"):
            problems.append(f"{where}: exact predictions gave ratio {r['ratio']} and errors "
                            f"{r['eta_t']}/{r['eta_b']}/{r['eta_f']}")
        if r["seed"] == "mean":
            mean = sum(misses_of[(r["param"], s)] for s in seeds) / len(seeds)
            if abs(misses - mean) > 1e-6 * mean:
                problems.append(f"{where}: mean misses {misses} != {mean}")
        else:
            misses_of[(r["param"], r["seed"])] = int(r["misses"])
    return problems + _check_phases(path, exp, misses_of)


def _check_phases(path: Path, exp: dict, misses_of: dict) -> list[str]:
    """The phase counters of each (point, seed) add up to its CSV misses:
    sum over users of min(k, U) + sum(n_q + o_q)."""
    k = inputs.CLI_K
    counted: dict[tuple, int] = defaultdict(int)
    users: dict[tuple, set] = defaultdict(set)
    c_sum: dict[tuple, int] = defaultdict(int)
    problems = []
    key = label = None
    for line in Path(str(path) + ".phases.csv").read_text().splitlines():
        if line.startswith("# "):
            label, seed, param = line[2:].split(" ")
            key = (param.removeprefix("param="), seed.removeprefix("seed="))
            users[key].add(label)
            counted[key] += min(k, exp["users"][label][1])
        elif not line.startswith("phase,"):
            q, c_q, n_q, o_q, n_new, n_old = map(int, line.split(","))
            counted[key] += n_q + o_q
            c_sum[(key, label)] += c_q
            if n_q != n_new + n_old or n_q > 2 * c_q or n_old > c_q:
                problems.append(f"{path.name} {label} {key} phase {q}: gate broken")
    for key, misses in misses_of.items():
        if users[key] != set(exp["users"]):
            problems.append(f"{path.name} {key}: phase sections for {len(users[key])} users, "
                            f"{len(exp['users'])} kept")
        elif counted[key] != misses:
            problems.append(f"{path.name} {key}: phase counters account for "
                            f"{counted[key]} misses, the CSV has {misses}")
    for (key, label), total in c_sum.items():
        if total > 2 * exp["users"][label][0]:
            problems.append(f"{path.name} {label} {key}: sum(c_q) {total} > 2*opt")
    return problems
