#!/usr/bin/env python3
"""Validates every committed BENCH_*.json at the repo root.

Each artifact must parse as JSON and carry the schema its consumers (the
README tables, the ROADMAP perf-trajectory entries, and the CI smoke
asserts) expect. Files this script does not know get the generic check
only (valid JSON object) plus a warning, so new artifacts fail soft until
their schema is registered here.

Usage: python3 tools/check_bench_json.py [repo_root]
Exit code 0 when every file validates, 1 otherwise.
"""

import json
import pathlib
import sys


def require(condition, path, message):
    if not condition:
        raise AssertionError(f"{path.name}: {message}")


def check_rows(data, path, required_keys, min_rows=1):
    rows = data.get("rows")
    require(isinstance(rows, list), path, "'rows' must be a list")
    require(len(rows) >= min_rows, path,
            f"expected >= {min_rows} rows, found {len(rows)}")
    for i, row in enumerate(rows):
        require(isinstance(row, dict), path, f"row {i} is not an object")
        missing = set(required_keys) - row.keys()
        require(not missing, path, f"row {i} missing keys {sorted(missing)}")


def check_free_index(data, path):
    require(data.get("schema_version") == 1, path, "schema_version != 1")
    check_rows(data, path, {
        "gaps", "binned_queries_per_sec", "map_queries_per_sec",
        "binned_churn_per_sec", "map_churn_per_sec",
    })
    # The artifact's headline: the binned index out-churns the map scan at
    # every population, from the smallest (1e2) to the largest (1e6) gaps.
    populations = {row["gaps"] for row in data["rows"]}
    for expected in (100, 1000000):
        require(expected in populations, path,
                f"row at {expected} gaps missing")
    for row in data["rows"]:
        require(row["binned_churn_per_sec"] > row["map_churn_per_sec"], path,
                f"{row['gaps']} gaps: binned churn "
                f"{row['binned_churn_per_sec']} <= map churn "
                f"{row['map_churn_per_sec']}")


def check_address_space(data, path):
    require(data.get("schema_version") == 1, path, "schema_version != 1")
    require(data.get("smoke") is False, path,
            "committed artifact is a --smoke run; regenerate full-size")
    require("storm_speedup_flat_batched_vs_map_per_move" in data, path,
            "missing storm speedup summary key")
    check_rows(data, path,
               {"section", "engine", "mode", "n", "ops", "ops_per_sec"})


def check_scenarios(data, path):
    # v3 drops the free-list policy and bin-discipline axes (and their
    # "policy"/"discipline" columns): first-fit and best-fit now have one
    # free-space engine each, so every algorithm is one cell.
    require(data.get("schema_version") == 3, path, "schema_version != 3")
    require(data.get("smoke") is False, path,
            "committed artifact is a --smoke run; regenerate full-size")
    check_rows(data, path, {
        "scenario", "algorithm", "shards", "routing",
        "operations", "max_footprint_ratio", "avg_footprint_ratio",
        "final_footprint_ratio", "max_reserved_footprint", "max_volume",
        "moves", "bytes_moved", "bytes_placed", "linear_cost_ratio",
        "linear_realloc_ratio", "wall_seconds", "ops_per_sec",
    })
    rows = data["rows"]
    for row in rows:
        stale = {"policy", "discipline"} & row.keys()
        require(not stale, path,
                f"row {row['scenario']}/{row['algorithm']} carries "
                f"removed columns {sorted(stale)}")
    scenarios = {r["scenario"] for r in rows}
    for expected in ("steady-churn", "zipf-churn", "database-block-replay",
                     "multi-tenant-skew"):
        require(expected in scenarios, path, f"scenario '{expected}' missing")
    cells = {(r["algorithm"], r["shards"], r["routing"]) for r in rows}
    require(len(rows) == len(cells) * len(scenarios), path,
            f"{len(rows)} rows != {len(cells)} cells x "
            f"{len(scenarios)} scenarios")
    for algorithm in ("first-fit", "best-fit"):
        require((algorithm, 1, "-") in cells, path,
                f"K=1 {algorithm} cell missing")


def check_sharded(data, path):
    # v2 adds the routing-policy/rebalancer axes (least-loaded routing,
    # "+rb" cells with migration counts, throughput relative to same-K
    # hash) and replaces the misleading global_max_end — absolute
    # shard-base offsets at K>1 — with the max shard-local end.
    require(data.get("schema_version") == 2, path, "schema_version != 2")
    require(data.get("smoke") is False, path,
            "committed artifact is a --smoke run; regenerate full-size")
    check_rows(data, path, {
        "scenario", "algorithm", "shards", "routing", "rebalancer", "facade",
        "operations", "ops_per_sec", "ops_vs_hash", "max_footprint_ratio",
        "moves", "bytes_moved", "migrations", "migrated_bytes",
        "sum_subrange_footprint", "max_shard_end",
    })
    scenarios = {r["scenario"] for r in data["rows"]}
    for expected in ("steady-churn", "zipf-churn", "database-block-replay",
                     "multi-tenant-skew"):
        require(expected in scenarios, path, f"scenario '{expected}' missing")
    cells = {(r["shards"], r["routing"], r["rebalancer"])
             for r in data["rows"]}
    for cell in ((16, "hash", False), (16, "least-loaded", False),
                 (16, "hash", True), (16, "least-loaded", True),
                 (1, "hash", True)):
        require(cell in cells, path,
                f"K={cell[0]} routing={cell[1]} rebalancer={cell[2]} "
                "row missing")
    for row in data["rows"]:
        if row["shards"] == 1 or not row["rebalancer"]:
            require(row["migrations"] == 0, path,
                    f"row {row['scenario']}/{row['algorithm']}"
                    f"/K={row['shards']}/{row['routing']}: migrations "
                    "without an active rebalancer (or on one shard)")


def check_concurrent(data, path):
    # v2 added the submit-path axis: every worker count is measured twice
    # (per-op Submit vs batched SubmitMany; both ride the lock-free remote
    # queues, though the committed per-op rows were measured over the
    # since-deleted per-op mutex queue), with the
    # "submit" and "batched_ops" columns distinguishing the rows. v3 adds
    # per-op wall-clock latency columns on every row (total / queue-wait /
    # service split from the service layer's own histograms) and the
    # open-loop burst grid: paced arrivals at a fraction of the measured
    # closed-loop capacity against bounded queues, checkpointed vs
    # deamortized inner algorithms. The committed artifact was measured
    # under a since-deleted bounded-retry drop policy; the driver now
    # applies pure backpressure, so a regenerated artifact reads
    # dropped_ops == 0 on every row and the drop checks below hold
    # trivially.
    require(data.get("schema_version") == 3, path, "schema_version != 3")
    # The committed artifact must be the full-size run; a --smoke run from
    # the repo root would silently clobber it otherwise.
    require(data.get("smoke") is False, path,
            "committed artifact is a --smoke run; regenerate full-size")
    require(isinstance(data.get("hardware_threads"), int), path,
            "missing 'hardware_threads' (scaling context)")
    require(isinstance(data.get("shard_count"), int), path,
            "missing 'shard_count'")
    require(isinstance(data.get("burst_workers"), int), path,
            "missing 'burst_workers'")
    require(isinstance(data.get("burst_queue_capacity"), int), path,
            "missing 'burst_queue_capacity'")
    check_rows(data, path, {
        "scenario", "algorithm", "mode", "submit", "workers", "shards",
        "operations", "wall_seconds", "ops_per_sec", "speedup_vs_w1",
        "moves", "bytes_moved", "bytes_placed", "volume_final",
        "sum_reserved_final", "sum_peak_reserved", "global_max_end",
        "failed_ops", "batched_ops", "offered_ratio", "offered_ops_per_sec",
        "submit_seconds", "dropped_ops", "lat_ops",
        "lat_total_p50_ns", "lat_total_p90_ns", "lat_total_p99_ns",
        "lat_total_p999_ns", "lat_total_max_ns", "lat_total_mean_ns",
        "lat_queue_p50_ns", "lat_queue_p99_ns", "lat_queue_p999_ns",
        "lat_service_p50_ns", "lat_service_p90_ns", "lat_service_p99_ns",
        "lat_service_p999_ns", "lat_service_max_ns",
    })
    cells = {(r["mode"], r["submit"], r["workers"]) for r in data["rows"]}
    require(("facade", "sync", 1) in cells, path,
            "single-threaded facade row missing")
    for workers in (1, 2, 4, 8):
        require(("concurrent", "per-op", workers) in cells, path,
                f"concurrent per-op W={workers} row missing")
        require(("concurrent-batched", "batched", workers) in cells, path,
                f"concurrent batched W={workers} row missing")
    burst_cells = {(r["algorithm"], r["submit"], r["offered_ratio"])
                   for r in data["rows"] if r["mode"].startswith("burst")}
    for algorithm in ("checkpointed", "deamortized"):
        for submit in ("per-op", "batched"):
            for ratio in (0.5, 0.9, 1.2, 2.0):
                require((algorithm, submit, ratio) in burst_cells, path,
                        f"burst {algorithm}/{submit}/{ratio}x row missing")
    for row in data["rows"]:
        burst = row["mode"].startswith("burst")
        label = (f"row {row['scenario']}/{row['algorithm']}"
                 f"/{row['mode']}/{row['submit']}/W={row['workers']}")
        executed = row["operations"] - row["dropped_ops"]
        if burst:
            # Burst rows of the committed artifact may drop (the old
            # bounded-retry overload policy), and a dropped insert makes a
            # later delete of that id fail. A regenerated artifact drops
            # nothing. Everything that did execute must be accounted for
            # exactly.
            require(row["failed_ops"] <= row["dropped_ops"], path,
                    f"{label}: more failed ops than drops can explain")
            require(row["offered_ratio"] > 0, path,
                    f"{label}: burst row without an offered ratio")
        else:
            require(row["failed_ops"] == 0, path, f"{label} has failed ops")
            require(row["dropped_ops"] == 0, path,
                    f"{label}: closed-loop row dropped ops")
            require(row["offered_ratio"] == 0, path,
                    f"{label}: non-burst row carries an offered ratio")
        if row["submit"] == "batched":
            # Every delivered op in a batched row must have travelled the
            # remote queues — less means the batched path silently fell
            # back to something else.
            require(row["batched_ops"] == executed, path,
                    f"{label}: batched_ops != delivered operations")
        else:
            require(row["batched_ops"] == 0, path,
                    f"{label}: non-batched row reports batched_ops")
        # Latency accounting: every executed op is in the histograms
        # exactly once, and each percentile family is monotone in q.
        require(row["lat_ops"] == executed, path,
                f"{label}: lat_ops != executed operations")
        for family in ("lat_total", "lat_service"):
            quantiles = [row[f"{family}_p50_ns"], row[f"{family}_p90_ns"],
                         row[f"{family}_p99_ns"], row[f"{family}_p999_ns"],
                         row[f"{family}_max_ns"]]
            require(quantiles == sorted(quantiles), path,
                    f"{label}: {family} percentiles not monotone")
            require(quantiles[-1] > 0, path,
                    f"{label}: {family} recorded nothing")
        queue = [row["lat_queue_p50_ns"], row["lat_queue_p99_ns"],
                 row["lat_queue_p999_ns"]]
        require(queue == sorted(queue), path,
                f"{label}: lat_queue percentiles not monotone")
        if row["mode"] == "facade":
            # The sync facade has no queue; its queue-wait split is empty.
            require(queue == [0, 0, 0], path,
                    f"{label}: sync facade reports queue wait")
    # The deamortization headline as a latency claim: at every offered
    # rate up to and past saturation (the 2.0x overload cells are excluded
    # — in the committed artifact they are drop-storms, whose tail
    # measures the old drop policy, not the algorithm),
    # the deamortized inner algorithm's service-time tail ratio p999/p50
    # must not exceed the checkpointed (amortized) one's in the matched
    # burst cell.
    burst_rows = {(r["algorithm"], r["submit"], r["offered_ratio"]): r
                  for r in data["rows"] if r["mode"].startswith("burst")}
    for submit in ("per-op", "batched"):
        for ratio in (0.5, 0.9, 1.2):
            chk = burst_rows[("checkpointed", submit, ratio)]
            deam = burst_rows[("deamortized", submit, ratio)]
            chk_tail = chk["lat_service_p999_ns"] / max(
                chk["lat_service_p50_ns"], 1)
            deam_tail = deam["lat_service_p999_ns"] / max(
                deam["lat_service_p50_ns"], 1)
            require(deam_tail <= chk_tail, path,
                    f"burst {submit}/{ratio}x: deamortized service tail "
                    f"p999/p50 ({deam_tail:.1f}) exceeds checkpointed "
                    f"({chk_tail:.1f})")


def check_durability(data, path):
    # v3 adds the group-commit fast path: overhead rows sweep a sync-policy
    # grid (policy/max_unsynced_checkpoints/compaction columns + sync wall
    # time), recovery rows carry a "compacted" flag whose replayed record
    # count must shrink, and fuzz rows gain policy cells with sync /
    # compaction / pre-compaction-point accounting. v4 fuzzes the inline
    # driver only and adds "equality" rows: the threaded driver's per-shard
    # logs against the inline driver's.
    require(data.get("schema_version") == 4, path, "schema_version != 4")
    require(data.get("smoke") is False, path,
            "committed artifact is a --smoke run; regenerate full-size")
    # The PR's acceptance bar, re-asserted on the committed artifact: at
    # least 1000 injected crash/torn-write points, all recovered (the
    # binary exits non-zero on any divergence, so an artifact from a failed
    # run never lands).
    require(isinstance(data.get("total_crash_points"), int) and
            data["total_crash_points"] >= 1000, path,
            "total_crash_points must be an int >= 1000")
    check_rows(data, path, {"section"})
    sections = {}
    for row in data["rows"]:
        sections.setdefault(row["section"], []).append(row)
    overhead_keys = {"algorithm", "sink", "policy",
                     "max_unsynced_checkpoints",
                     "compaction_threshold_bytes", "operations",
                     "wall_seconds", "ops_per_sec", "log_records",
                     "log_bytes", "log_syncs", "checkpoints",
                     "log_compactions", "sync_wall_seconds"}
    recovery_keys = {"operations", "compacted", "log_records", "log_bytes",
                     "recover_wall_seconds", "records_per_sec",
                     "checkpoint_seq"}
    fuzz_keys = {"scenario", "algorithm", "facade", "shards", "rebalance",
                 "policy", "crash_points", "boundary_points", "torn_points",
                 "mid_batch_points", "pre_compaction_points", "checkpoints",
                 "syncs", "compactions", "log_records", "recovered_records",
                 "migrations", "objects_verified"}
    equality_keys = {"scenario", "workers", "submission", "policy", "records",
                     "bytes", "syncs", "compactions", "retired_streams",
                     "identical"}
    for section, keys in (("overhead", overhead_keys),
                          ("recovery", recovery_keys), ("fuzz", fuzz_keys),
                          ("equality", equality_keys)):
        rows = sections.get(section, [])
        require(rows, path, f"no '{section}' rows")
        for i, row in enumerate(rows):
            missing = keys - row.keys()
            require(not missing, path,
                    f"{section} row {i} missing keys {sorted(missing)}")
    sinks = {r["sink"] for r in sections["overhead"]}
    for sink in ("none", "memory", "file"):
        require(sink in sinks, path, f"overhead sink '{sink}' missing")
    # The policy grid: every logging sink is swept across the strict
    # discipline, two coalescing windows, and a compacting cell; a sync
    # only ever happens at a checkpoint (the bench counts log rewrites
    # separately), and compacting cells must actually compact.
    for sink in ("memory", "file"):
        policies = {r["policy"] for r in sections["overhead"]
                    if r["sink"] == sink}
        for policy in ("sync1", "gc8", "gc32", "gc32+compact"):
            require(policy in policies, path,
                    f"overhead {sink} policy '{policy}' missing")
    for row in sections["overhead"]:
        if row["sink"] == "none":
            continue
        label = f"overhead {row['algorithm']}/{row['sink']}/{row['policy']}"
        require(row["log_syncs"] <= row["checkpoints"], path,
                f"{label}: more syncs than checkpoints")
        window = row["max_unsynced_checkpoints"]
        require(row["log_syncs"] == row["checkpoints"] // window, path,
                f"{label}: sync count does not match coalescing window")
        if row["compaction_threshold_bytes"] > 0:
            require(row["log_compactions"] > 0, path,
                    f"{label}: compaction cell never compacted")
        else:
            require(row["log_compactions"] == 0, path,
                    f"{label}: compactions without a threshold")
    # The headline claim on the committed artifact: coalescing 32
    # checkpoints per fsync buys >= 5x on the file sink, where every saved
    # sync is a real fsync(2).
    file_rows = {r["policy"]: r for r in sections["overhead"]
                 if r["algorithm"] == "checkpointed" and r["sink"] == "file"}
    require(file_rows["gc32"]["ops_per_sec"] >=
            5 * file_rows["sync1"]["ops_per_sec"], path,
            "file-sink gc32 is not >= 5x sync1 (group-commit headline)")
    # Compaction differential: same trace, same final checkpoint, strictly
    # fewer records to replay.
    by_ops = {}
    for row in sections["recovery"]:
        by_ops.setdefault(row["operations"], {})[row["compacted"]] = row
    for operations, pair in by_ops.items():
        require(set(pair) == {True, False}, path,
                f"recovery at {operations} ops missing a compacted or "
                "uncompacted row")
        require(pair[True]["checkpoint_seq"] == pair[False]["checkpoint_seq"],
                path, f"recovery at {operations} ops: compacted log landed "
                "on a different checkpoint")
        require(pair[True]["log_records"] < pair[False]["log_records"], path,
                f"recovery at {operations} ops: compaction did not shrink "
                "the replayed record count")
    facades = {(r["facade"], r["shards"]) for r in sections["fuzz"]}
    require(("sharded", 1) in facades, path, "fuzz sharded K=1 row missing")
    require(("sharded", 4) in facades, path, "fuzz sharded K=4 row missing")
    policy_cells = [r for r in sections["fuzz"] if r["policy"] != "sync1"]
    require(policy_cells, path, "no group-commit policy fuzz cells")
    # Crash points are enumerated on the inline driver's logs; the equality
    # rows carry them to the threaded driver, under both submission paths
    # and a policy that retires streams by compaction.
    for row in sections["equality"]:
        require(row["identical"] is True, path,
                f"equality {row['scenario']} W={row['workers']} "
                f"{row['submission']} {row['policy']}: threaded logs differ "
                "from inline logs")
    submissions = {r["submission"] for r in sections["equality"]}
    require(submissions >= {"per-op", "batched"}, path,
            "equality rows must cover per-op and batched submission")
    require(any(r["compactions"] > 0 and r["retired_streams"] > 0
                for r in sections["equality"]), path,
            "no equality row with a compacting policy")
    for row in policy_cells:
        label = f"fuzz policy cell '{row['policy']}'"
        require(row["crash_points"] >= 1000, path,
                f"{label}: needs >= 1000 crash points")
        require(row["syncs"] < row["checkpoints"], path,
                f"{label}: coalescing cell never coalesced")
        if "compact" in row["policy"]:
            require(row["compactions"] > 0, path,
                    f"{label}: compacting cell never compacted")
            require(row["pre_compaction_points"] > 0, path,
                    f"{label}: no cuts landed in retired pre-compaction "
                    "streams")
    for row in sections["fuzz"]:
        require(row["syncs"] <= row["checkpoints"], path,
                f"fuzz {row['scenario']}/{row['policy']}: more syncs than "
                "checkpoints")
        # Rebalance runs on the inline driver only, and a migration cell
        # that never migrated fuzzes nothing the plain cells do not.
        if row["rebalance"]:
            require(row["facade"] == "sharded" and row["migrations"] > 0,
                    path, f"fuzz rebalance cell {row['scenario']}/"
                    f"{row['algorithm']}/{row['facade']}: must be sharded "
                    "and migrate")
    points = sum(r["crash_points"] for r in sections["fuzz"])
    require(points == data["total_crash_points"], path,
            "total_crash_points disagrees with the fuzz rows")


CHECKERS = {
    "BENCH_durability.json": check_durability,
    "BENCH_free_index.json": check_free_index,
    "BENCH_address_space.json": check_address_space,
    "BENCH_scenarios.json": check_scenarios,
    "BENCH_sharded.json": check_sharded,
    "BENCH_concurrent.json": check_concurrent,
}


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(root.glob("BENCH_*.json"))
    if not files:
        print(f"error: no BENCH_*.json found under {root.resolve()}")
        return 1
    failures = 0
    for path in files:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"FAIL {path.name}: unreadable or invalid JSON: {error}")
            failures += 1
            continue
        try:
            require(isinstance(data, dict), path, "top level is not an object")
            checker = CHECKERS.get(path.name)
            if checker is None:
                print(f"warn {path.name}: no registered schema, generic "
                      "check only — register it in tools/check_bench_json.py")
            else:
                checker(data, path)
            print(f"ok   {path.name}")
        except AssertionError as error:
            print(f"FAIL {error}")
            failures += 1
    if failures:
        print(f"{failures} of {len(files)} artifacts failed validation")
        return 1
    print(f"all {len(files)} bench artifacts validate")
    return 0


if __name__ == "__main__":
    sys.exit(main())
