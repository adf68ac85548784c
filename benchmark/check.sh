#!/usr/bin/env bash
# Smoke-check the benchmark in about 90 s (once built): unit tests, every
# workload untraced and traced at 1/10 counts, and the emitted metric names
# against BENCHMARK.json — every listed metric present, nothing unnamed.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
out=benchmark/out
mkdir -p "$out"

cargo test --release --offline --quiet --manifest-path "$manifest"
cargo run --release --offline --quiet --manifest-path "$manifest" -- run --quick >"$out/check-run.json"
cargo run --release --offline --quiet --manifest-path "$manifest" -- trace --quick >"$out/check-trace.json"

python3 - "$out" <<'PY'
import json, re, sys
out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
names = [w["name"] for w in bench["workloads"]]
main = open("benchmark/src/suite.rs").read()
seconds = float(re.search(r"DEFAULT_SECONDS: f64 = ([0-9.]+)", main).group(1))
assert seconds == bench["run_seconds"], "run_seconds differs from DEFAULT_SECONDS"
for doc, key in (("check-run.json", "end_to_end"), ("check-trace.json", "per_layer")):
    suite = json.loads(open(f"{out}/{doc}").read().strip().splitlines()[-1])
    assert suite["ok"], f"{doc}: a workload failed its output checks"
    assert list(suite["workloads"]) == names, f"{doc}: workloads differ from BENCHMARK.json"
    listed = {m["name"]: m["unit"] for m in bench[key]}
    for name, run in suite["workloads"].items():
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == listed, (
            f"{doc}/{name}: missing {sorted(set(listed) - set(emitted))}, "
            f"unnamed {sorted(set(emitted) - set(listed))}, or a unit differs")
        assert result["failed"] == 0 and result["attempted"] >= 1, f"{doc}/{name}: failed ops"
print("benchmark/check.sh: ok —", len(names), "workloads,",
      len(bench["end_to_end"]), "end-to-end +", len(bench["per_layer"]), "per-layer metrics")
PY

# The benchmark must refuse to run where the program's sources are
# missing (a directory holding only BENCHMARK.json and benchmark/).
bare="$out/bare"
rm -rf "$bare" && mkdir -p "$bare/benchmark"
cp BENCHMARK.json "$bare/"
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src "$bare/benchmark/"
if (cd "$bare" && cargo run --release --offline --quiet --manifest-path "$manifest" -- \
      --workload read_heavy --seed 1 --seconds 1 --trace 0 >/dev/null 2>&1); then
  echo "benchmark ran without the program's sources" >&2
  exit 1
fi
rm -rf "$bare"
