"""
Ingesting real trace formats and running sweeps with the harness
================================================================

Three adapters turn raw logs into request traces: location check-ins (one
trace per user), bike-trip CSVs (start station ids), and raw memory-address
streams (one trace per cache set, pages = cache lines). The experiment
harness then runs (policy, predictor, sweep, seeds) grids over any of them
and writes CSV; the same runs are reachable from the command line.
"""

import tempfile
from pathlib import Path

from cachesim import (
    ExperimentConfig,
    ingest_address_trace,
    ingest_brightkite,
    ingest_citibike,
    run,
)
from cachesim.cli import main as cachesim_main

# --- check-in logs: user, timestamp, lat, lon, location ----------------------
checkins = """\
9	2010-10-17T01:48:53Z	39.75	-104.98	loc_a
9	2010-10-16T06:02:04Z	39.89	-105.08	loc_b
9	2010-10-15T23:55:27Z	39.75	-104.99	loc_a
9	2010-10-14T18:10:42Z	39.74	-104.99	loc_c
9	2010-10-13T11:01:01Z	39.75	-104.98	loc_b
"""
for user, trace in ingest_brightkite(checkins, cache_size=1):
    print(f"user {user}: {len(trace)} check-ins, {trace.universe_size} distinct places")
    # rows arrive newest-first in the raw log; the adapter re-sorts by time

# --- trip CSVs: any column layout, station ids may be floats ------------------
trips = """\
tripduration,starttime,start station id,end station id
600,2019-07-01 00:00:01,72,505
312,2019-07-01 00:00:44,505.0,72
219,2019-07-01 00:01:02,435,3255
1200,2019-07-01 00:02:40,72,435
"""
trace = ingest_citibike(trips)
print(f"trips: stations requested in order {trace.pages}")

# --- raw address streams: pages are 64-byte lines, split per cache set --------
addresses = "0x1000\n0x1040\n4096\n0x2000\n0x1000\n"
sets = ingest_address_trace(addresses, ways=2)
for index, set_trace in sorted(sets.items()):
    print(f"cache set {index}: lines {set_trace.pages}")

# --- the harness: one config, many seeds, one CSV -----------------------------
workdir = Path(tempfile.mkdtemp())
trace_file = workdir / "trace.txt"
trace_file.write_text("\n".join(str(p % 7) for p in range(0, 300, 1)) + "\n")

table = run(ExperimentConfig(
    trace=trace_file, k=3,
    policy="guard:blind_oracle",
    pred="nrt", sweep="sigma=0,1,4",
    seeds=[0, 1, 2],
    out=workdir / "results.csv",
))
print(f"\nmean ratio per noise level: { {p: round(r, 3) for p, r in table.mean_ratios().items()} }")
print(f"rows written: {len(table.rows)} -> {workdir / 'results.csv'}")

# --- the same experiment from the command line --------------------------------
# (equivalent shell call: cachesim --trace trace.txt --k 3
#      --policy guard:blind_oracle --pred nrt --sweep sigma=0,1,4 --seeds 3)
exit_code = cachesim_main([
    "--trace", str(trace_file), "--k", "3",
    "--policy", "guard:blind_oracle", "--pred", "nrt",
    "--sweep", "sigma=0,1,4", "--seeds", "3",
    "--out", str(workdir / "cli_results.csv"),
])
print(f"cli exit code: {exit_code}")
