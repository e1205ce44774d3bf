#!/usr/bin/env bash
# CI gate: formatting, vet, build, race-enabled tests, a one-iteration
# benchmark smoke run so the perf paths (dense kernels over VP subsets and
# full views, the per-path interner, parallel stability) are exercised beside
# the race-enabled tests, an observability smoke over the artifacts of a real
# pipeline run, and the rankd daemon smokes (serve, SLO drill, crash
# recovery, shedding, drift).
set -euo pipefail
cd "$(dirname "$0")/.."

echo '--- gofmt'
unformatted=$(gofmt -l ./cmd ./internal ./scripts ./*.go)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo '--- go vet'
go vet ./...

echo '--- one debug surface: no process-wide hooks under internal/obs'
# The debug mux reads the Sources main sets on obs.CmdFlags; a SetDefault* /
# GetDefault* pair coming back would be a second way in.
if grep -rn 'func SetDefault\|func GetDefault' internal/obs; then
    echo 'internal/obs grew a SetDefault/GetDefault hook; hand the value through obs.Sources' >&2
    exit 1
fi

echo '--- go build'
go build ./...

echo '--- go test -race'
go test -race ./...

echo '--- bench smoke (Figure4, Figure5, Table9GlobalContrast, PipelineBuild, Propagation, Table1Sanitize, ConeStarts, MRT plane, 1 iteration)'
# Figure4 and Figure5 combine per-view trial state over VP subsets (national
# and international views); Table9 drives the full-view Global path and its
# (VP, path) runs, PipelineBuild the judge's prefilled flag table, the
# pre-pass and record pass, the table-numbered interner, the counting-sorted
# prefix-country index and the chain starts,
# Propagation the sharded path arenas and the merge's numbering,
# Table1Sanitize the accounting over a built dataset, ConeStarts the chain
# rule over every path's dense ids through the id-indexed relationship memo,
# MRTExport / MRTImportFiles / MRTRoundTrip the export grouping, the
# copy-free decode buffers and the presized parallel merge.
go test -run '^$' -bench 'Figure4|Figure5|Table9GlobalContrast|PipelineBuild|Propagation$|Table1Sanitize|ConeStarts|MRTExport|MRTImportFiles|MRTRoundTrip' -benchtime 1x .

echo '--- shard determinism under -race'
# The sharded-propagation merge and the chunk-parallel MRT importer are the
# two places a scheduling race could silently corrupt output; run their
# byte-identity tests with the race detector watching the worker pools.
# Beside them, the two invariants the hash-free merge rests on: frontier
# order cannot show in a routing tree, and numbering paths by first
# appearance hands out exactly the indexes hash-consing would. The MRT
# plane's own seams ride along: dumps written concurrently off one fresh
# collection equal the golden bytes and the map+sort reference, the import's
# parallel remap equals the stream import with its stats, rejected entries
# leave Records exactly sized, the import stays inside its allocation budget,
# and crank's concurrently hashed manifest inputs keep path order.
go test -race -count=1 \
    -run 'TestShardedBuildDeterministic|TestPropagateFrontierOrderFree|TestPathNumberingEqualsHashConsing|TestImportMRTFilesMatchesStreams|TestImportForeignPeerAndRepeatedPrefix|TestImportAllocBudget|TestImportMRTDegraded|TestExportMRTMatchesReference|TestExportUpdatesMRTMatchesReference|TestOrderedMap|TestGoldenMRTBytes|TestAddInputsOrderAndDigests' \
    ./internal/routing ./internal/par ./internal/snapshot ./cmd/crank
# The kernels' pooled scratch, the lazily resolved CTI depths and the
# per-view trial state (hegemony.PerVP, cone.Witnesses) are shared between
# concurrent kernel runs and stability workers, and the per-path dataset
# layout must leave every served byte where it was: the reference-equivalence
# tests run from several goroutines, the reusable path judge against its
# allocating reference, and the fixed-seed golden with its six stability
# curves, under the detector. With them the record plane's three: no lookup
# grows the judge's flag table, the record passes equal their per-record
# reference, and hegemony's (VP, path) runs equal the map reference however
# the records are ordered. A trial's generator and permutation are pooled
# too: the pooled draw equals rand.Perm, the kernels' Each streamed into the
# top-k window equals the sorted map, and the scanning list measures equal
# their map references.
go test -race -count=1 \
    -run 'TestKernelMatchesMapReference|TestWitnessesAddressesMatchComputeFrom|TestPerVPScoresMatchCompute|TestPathRunsMatchMapReference|TestInternerInvariants|TestJudgeMatchesReference|TestJudgeLookupsCreateNoPages|TestRunMatchesPerRecordReference|TestCTILazyDepthsConcurrent|TestGoldenPipelineOutputs|TestTrialDrawMatchesRandPerm|TestWindowMatchesSortedReference|TestStabilityDeterministic|TestScansMatchMapReferences' \
    ./internal/cone ./internal/hegemony ./internal/sanitize ./internal/core ./internal/snapshot ./internal/ndcg
# Beside the golden, the one published form: a generation file holds rank
# vectors only and loads back serving the built bytes; vectors forged under
# consistent CRCs die at the digest; a hostile count cannot buy an
# allocation; the fuzz target's seed passes.
go test -race -count=1 \
    -run 'TestPersistRoundTrip|TestPersistRejectsForgedVectors|TestLoadFileHostileCounts|FuzzLoadFile' \
    ./internal/snapshot

# The debug surface and the ring under it: the ring's property test, a
# daemon's stage trace staying bounded across 10× its capacity in real
# epochs, the -debug-addr listener answering "not ready" from its first
# response, and /debug/vars reading pull-refreshed series fresh — the trace
# and the registry are shared by the supervisor goroutine, the handlers and
# the timeline tick, so they run under the detector.
go test -race -count=1 \
    -run 'TestRingProperty|TestDaemonTraceBounded|TestReadyzNotOkBeforeProbe|TestDebugVarsRefreshesPullSeries|TestDebugRequestsShape' \
    ./internal/obs

echo '--- stability determinism (experiments -quick in full, twice and on one proc)'
# Trials fan out over a worker pool and combine shared per-view state, and a
# worker's generator and permutation buffer outlive a trial; the printed
# curves may depend on the seed alone. A draw that leaked state from the trial
# before it would differ between one worker and several. Every other table
# and figure rides along: a Render that read its rows out of a map without
# ordering ties (Figure 7's 0.0 % rows once did) differs between two runs.
stab_dir=$(mktemp -d)
go build -o "$stab_dir/experiments" ./cmd/experiments
"$stab_dir/experiments" -quick >"$stab_dir/a.out" 2>/dev/null
"$stab_dir/experiments" -quick >"$stab_dir/b.out" 2>/dev/null
GOMAXPROCS=1 "$stab_dir/experiments" -quick >"$stab_dir/c.out" 2>/dev/null
grep -q '^Figure 5' "$stab_dir/a.out"
grep -q '^Figure 7' "$stab_dir/a.out"
cmp "$stab_dir/a.out" "$stab_dir/b.out"
cmp "$stab_dir/a.out" "$stab_dir/c.out"
rm -rf "$stab_dir"

echo '--- scale smoke (topogen -shards 8 vs -shards 1 vs one proc -> crank -mrt, complete and partial)'
# A medium world generated three times — sharded, sequential, and with the
# concurrent dump writers confined to one proc: the dump directories must be
# byte-identical file for file, and crank must rank off them chunk-parallel,
# unlabelled, printing the same bytes on one proc as on all.
scale_dir=$(mktemp -d)
go build -o "$scale_dir/topogen" ./cmd/topogen
go build -o "$scale_dir/crank" ./cmd/crank
"$scale_dir/topogen" -scale 0.5 -vpscale 0.5 -shards 8 -out "$scale_dir/mrt"
"$scale_dir/topogen" -scale 0.5 -vpscale 0.5 -shards 1 -out "$scale_dir/mrt-seq"
(cd "$scale_dir/mrt" && sha256sum -- *.mrt) >"$scale_dir/sharded.sha256"
(cd "$scale_dir/mrt-seq" && sha256sum -- *.mrt) >"$scale_dir/sequential.sha256"
[[ -s "$scale_dir/sharded.sha256" ]]
cmp "$scale_dir/sharded.sha256" "$scale_dir/sequential.sha256"
GOMAXPROCS=1 "$scale_dir/topogen" -scale 0.5 -vpscale 0.5 -out "$scale_dir/mrt-1p"
(cd "$scale_dir/mrt-1p" && sha256sum -- *.mrt) >"$scale_dir/oneproc.sha256"
cmp "$scale_dir/sharded.sha256" "$scale_dir/oneproc.sha256"
"$scale_dir/crank" -scale 0.5 -vpscale 0.5 -mrt "$scale_dir/mrt" \
    -top 3 AU >"$scale_dir/crank.out"
grep -q 'CCI' "$scale_dir/crank.out"
GOMAXPROCS=1 "$scale_dir/crank" -scale 0.5 -vpscale 0.5 -mrt "$scale_dir/mrt" \
    -top 3 AU >"$scale_dir/crank-1p.out"
cmp "$scale_dir/crank.out" "$scale_dir/crank-1p.out"
if grep -q 'degraded' "$scale_dir/crank.out"; then
    echo "crank labelled a complete dump directory as degraded" >&2
    exit 1
fi
# A directory missing one collector's dump still ranks, but says so in every
# ranking name and in the manifest; one dump alone is below quorum and must
# print no ranking at all.
dumps=("$scale_dir"/mrt/*.mrt)
rm "${dumps[0]}"
"$scale_dir/crank" -scale 0.5 -vpscale 0.5 -mrt "$scale_dir/mrt" \
    -manifest "$scale_dir/partial.json" -top 3 AU >"$scale_dir/partial.out"
grep -q 'CCI AU \[degraded: ' "$scale_dir/partial.out"
grep -q '"degraded": true' "$scale_dir/partial.json"
rm "${dumps[@]:2}"
if "$scale_dir/crank" -scale 0.5 -vpscale 0.5 -mrt "$scale_dir/mrt" \
    -top 3 AU >"$scale_dir/quorum.out" 2>"$scale_dir/quorum.err"; then
    echo "crank ranked a one-dump directory (below quorum)" >&2
    exit 1
fi
grep -q 'below quorum' "$scale_dir/quorum.err"
[[ ! -s "$scale_dir/quorum.out" ]]
rm -rf "$scale_dir"

echo '--- fuzz smoke (MRT reader, path judge, generation loader, 10s each)'
go test -run '^$' -fuzz FuzzReaderNext -fuzztime 10s ./internal/mrt
# AS paths reach the judge straight from MRT bytes: same verdict and clean
# form as the retained reference, no flag-table page created by a lookup,
# never a panic.
go test -run '^$' -fuzz FuzzJudge -fuzztime 10s ./internal/sanitize
# A .csnap is read at boot from a directory the daemon does not control: an
# error, or a snapshot that saves and loads again to the header's digest;
# never a panic.
go test -run '^$' -fuzz FuzzLoadFile -fuzztime 10s ./internal/snapshot

echo '--- chaos soak (collector under injected faults, -race, bounded)'
# The soak feeds a live collector over transports that reset, truncate,
# fragment, and delay, and requires the rebuilt collection to be identical
# to a fault-free run with reconnects and resumes actually observed.
go test -race -run TestChaosSoak -count=1 -timeout 120s ./internal/collector

echo '--- obs smoke (crank -metric global, validate artifacts and the manifest metrics block)'
# One small foreground crank run, then assert on what it left behind: the
# exported trace + provenance manifest parse and carry the required sections,
# and the manifest's metrics block shows the sanitize / propagation / kernel
# instrumentation actually moved during the run.
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
go run ./cmd/crank -scale 0.15 -vpscale 0.2 -top 3 -shards 4 -metric global \
    -trace-out "$obs_dir/trace.json" -manifest "$obs_dir/manifest.json" >"$obs_dir/crank.out"
grep -q '^CCG' "$obs_dir/crank.out"
grep -q '^AHG' "$obs_dir/crank.out"
go run ./scripts/checkartifacts \
    -manifest "$obs_dir/manifest.json" -trace "$obs_dir/trace.json" \
    -require seeds,coverage,sanitize_drops

require_nonzero() {
    # require_nonzero METRIC: the series must be in $obs_metrics — a /metrics
    # scrape or a manifest, one `name value` or `"name": value,` a line —
    # with a value > 0.
    if ! awk -v m="$1" '{ gsub(/[":,]/, "") } $1 == m && $2 + 0 > 0 { found = 1 } END { exit !found }' "$obs_metrics"; then
        echo "metric $1 missing or zero in $obs_metrics:" >&2
        grep -E "$1" "$obs_metrics" >&2 || true
        exit 1
    fi
}
obs_metrics="$obs_dir/manifest.json"
require_nonzero countryrank_sanitize_records_total
require_nonzero countryrank_sanitize_accepted_total
require_nonzero countryrank_routing_paths_propagated_total
require_nonzero countryrank_routing_shards_done_total
require_nonzero countryrank_core_kernel_cone_seconds_count
require_nonzero countryrank_core_kernel_hegemony_seconds_count

echo '--- rankd smoke (serve, revalidate, rollover, manifest digest, loadgen)'
# Start the serving daemon on a small world, exercise the conditional-request
# contract end to end (200 with a strong ETag, then 304 on If-None-Match
# replay), roll the snapshot over with SIGHUP, check the serving metrics
# moved, pair the manifest's recorded digest with the one actually served,
# and close with a short loadgen run that must not see one failed request.
rankd_port=$((20000 + RANDOM % 20000))
rankd_dir=$(mktemp -d)
go build -o "$rankd_dir/rankd" ./cmd/rankd
go build -o "$rankd_dir/loadgen" ./cmd/loadgen
"$rankd_dir/rankd" -addr "127.0.0.1:$rankd_port" -scale 0.15 -vpscale 0.2 \
    -topn 10 -manifest "$rankd_dir/manifest.json" \
    -access-log "$rankd_dir/access.log" -trace-sample 0.2 -timeline 500ms \
    -slo 'availability=99,latency=99@50ms,bucket=1s,fast=5s,slow=30s,trip=2' \
    -slow-probe 100ms >"$rankd_dir/rankd.log" 2>&1 &
rankd_pid=$!
trap 'kill "$rankd_pid" 2>/dev/null || true; rm -rf "$obs_dir" "$rankd_dir"' EXIT
rankd_base="http://127.0.0.1:$rankd_port"

# The listener comes up only after the first snapshot is built; poll for it.
for _ in $(seq 1 120); do
    if ! kill -0 "$rankd_pid" 2>/dev/null; then
        echo "rankd exited before serving:" >&2
        cat "$rankd_dir/rankd.log" >&2
        exit 1
    fi
    curl -fsS "$rankd_base/v1/snapshot" >"$rankd_dir/snapshot.json" 2>/dev/null && break
    sleep 1
done
served_digest=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$rankd_dir/snapshot.json")
cc=$(sed -n 's/.*"countries":\["\([A-Z][A-Z]*\)".*/\1/p' "$rankd_dir/snapshot.json")
[[ -n "$served_digest" && -n "$cc" ]]

# 200 with a strong ETag, then 304 on replay with that exact tag.
curl -fsS -D "$rankd_dir/country.hdr" -o "$rankd_dir/country.json" \
    "$rankd_base/v1/countries/$cc"
etag=$(awk 'tolower($1) == "etag:" { print $2 }' "$rankd_dir/country.hdr" | tr -d '\r')
[[ "$etag" == '"'*'"' ]]
grep -q "\"country\":\"$cc\"" "$rankd_dir/country.json"
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -H "If-None-Match: $etag" "$rankd_base/v1/countries/$cc")
[[ "$code" == 304 ]]
curl -fsS "$rankd_base/v1/top/ccg?n=3" | grep -q '"n":3'

# SIGHUP publishes a new snapshot; same data, so the digest must not move.
kill -HUP "$rankd_pid"
for _ in $(seq 1 120); do
    curl -fsS "$rankd_base/v1/snapshot" 2>/dev/null | grep -q '"epoch":2' && break
    sleep 1
done
curl -fsS "$rankd_base/v1/snapshot" | grep -q '"epoch":2'
curl -fsS "$rankd_base/v1/snapshot" | grep -q "\"digest\":\"$served_digest\""

# Serving metrics moved, and the manifest recorded the digest being served.
curl -fsS "$rankd_base/metrics" >"$rankd_dir/metrics.txt"
obs_metrics="$rankd_dir/metrics.txt"
require_nonzero countryrank_rankd_requests_total
require_nonzero countryrank_rankd_responses_200_total
require_nonzero countryrank_rankd_responses_304_total
require_nonzero countryrank_rankd_snapshot_swaps_total
manifest_digest=$(sed -n 's/.*"snapshot_digest": *"\([0-9a-f]*\)".*/\1/p' "$rankd_dir/manifest.json")
if [[ "$manifest_digest" != "$served_digest" ]]; then
    echo "manifest snapshot_digest $manifest_digest != served digest $served_digest" >&2
    exit 1
fi

# A short load run; any failed request fails it. Loadgen runs in the
# background so the request inspector and SLO report can be scraped while
# traffic is actually flowing.
"$rankd_dir/loadgen" -url "$rankd_base" -duration 3s -conc 4 -n 10 \
    -max-error-rate 0 -out "$rankd_dir/serving.json" >"$rankd_dir/loadgen.out" 2>&1 &
loadgen_pid=$!
sleep 1
# Mid-run: the deterministic sampler must have promoted traces by now, and
# the SLO engine must be reporting burn over live windows.
curl -fsS "$rankd_base/debug/requests" >"$rankd_dir/requests.json"
grep -q '"sampled":' "$rankd_dir/requests.json"
sampled=$(sed -n 's/.*"sampled":\([0-9]*\).*/\1/p' "$rankd_dir/requests.json")
if [[ -z "$sampled" || "$sampled" -eq 0 ]]; then
    echo "no sampled request traces at /debug/requests:" >&2
    head -c 500 "$rankd_dir/requests.json" >&2
    exit 1
fi
grep -q '"events":\[{"name":"parse"' "$rankd_dir/requests.json"
curl -fsS "$rankd_base/debug/slo" >"$rankd_dir/slo.json"
grep -q '"burn":' "$rankd_dir/slo.json"
grep -q '"name":"availability"' "$rankd_dir/slo.json"
grep -q '"name":"latency"' "$rankd_dir/slo.json"
if ! wait "$loadgen_pid"; then
    echo "loadgen failed:" >&2
    cat "$rankd_dir/loadgen.out" >&2
    exit 1
fi
cat "$rankd_dir/loadgen.out"

# The serving snapshot carries the drift/history extras loadgen
# scrapes from the server: the SIGHUP above produced one drift-computed
# rollover and a two-epoch history ring.
grep -q '"history_epochs"' "$rankd_dir/serving.json"
grep -q '"drift_rollovers"' "$rankd_dir/serving.json"

# The wide-event access log was written by the drainer, one JSON record per
# request with the route class and snapshot provenance attached.
[[ -s "$rankd_dir/access.log" ]]
grep -q '"route":"country"' "$rankd_dir/access.log"
grep -q '"digest":' "$rankd_dir/access.log"

# The observability series all moved: runtime self-metrics, SLO accounting
# and the access-log pipeline (the trace sampler's count was read from
# /debug/requests above, which is where it lives).
curl -fsS "$rankd_base/metrics" >"$obs_metrics"
require_nonzero countryrank_go_goroutines
require_nonzero countryrank_go_heap_alloc_bytes
require_nonzero countryrank_slo_requests_total
require_nonzero countryrank_accesslog_events_total
# The timeline sampler replays the serving series alongside burn rates.
curl -fsS "$rankd_base/debug/timeline" >"$rankd_dir/timeline.json"
grep -q countryrank_rankd_requests_total "$rankd_dir/timeline.json"
grep -q countryrank_slo_latency_fast_burn "$rankd_dir/timeline.json"
# The two epochs' stage spans are served as a loadable Chrome trace.
curl -fsS "$rankd_base/debug/trace" | grep -q traceEvents

echo '--- rankd SLO degrade-and-recover (induced latency)'
# Let the loadgen traffic age out of the 5s fast window, then hammer the
# slow-probe hook: every probe=slow request sleeps 100ms server-side,
# breaching the 50ms objective, so the fast burn trips and /healthz reports
# degraded. Silence (plus window aging) must then recover it with no
# restart.
sleep 6
curl -fsS "$rankd_base/healthz" | grep -q '^ok'
for _ in $(seq 1 20); do
    curl -fsS "$rankd_base/v1/countries/$cc?probe=slow" >/dev/null
done
code=$(curl -s -o /dev/null -w '%{http_code}' "$rankd_base/healthz")
if [[ "$code" != 503 ]]; then
    echo "healthz = $code after latency injection, want 503 degraded" >&2
    curl -s "$rankd_base/debug/slo" >&2
    exit 1
fi
curl -s "$rankd_base/healthz" | grep -q 'degraded: latency fast burn'
sleep 7
curl -fsS "$rankd_base/healthz" | grep -q '^ok'

kill "$rankd_pid" 2>/dev/null || true
wait "$rankd_pid" 2>/dev/null || true
# The shutdown manifest rewrite recorded the final burn state.
grep -q '"slo_config"' "$rankd_dir/manifest.json"
grep -q '"slo_latency_fast_burn"' "$rankd_dir/manifest.json"

echo '--- rankd crash-recovery smoke (kill -9, warm start from durable store)'
# The crash-safety contract end to end: run rankd with the durable snapshot
# store, kill -9 it (no graceful shutdown, no final persist), restart, and
# require that the FIRST response from the new process serves the persisted
# last-good snapshot — same content digest, marked stale — before the
# background rebuild publishes epoch 2. Then the rebuild must land, clear
# the stale marker, and verify the same digest (same seed ⇒ same content).
crash_port=$((20000 + RANDOM % 20000))
crash_dir=$(mktemp -d)
trap 'kill "$rankd_pid" "$crash_pid" 2>/dev/null || true; rm -rf "$obs_dir" "$rankd_dir" "$crash_dir"' EXIT
"$rankd_dir/rankd" -addr "127.0.0.1:$crash_port" -scale 0.15 -vpscale 0.2 \
    -topn 10 -snapshot-dir "$crash_dir/snapdir" -snapshot-keep 2 \
    >"$crash_dir/rankd-run1.log" 2>&1 &
crash_pid=$!
crash_base="http://127.0.0.1:$crash_port"
for _ in $(seq 1 120); do
    if ! kill -0 "$crash_pid" 2>/dev/null; then
        echo "rankd (run 1) exited before serving:" >&2
        cat "$crash_dir/rankd-run1.log" >&2
        exit 1
    fi
    curl -fsS "$crash_base/v1/snapshot" >"$crash_dir/snap1.json" 2>/dev/null && break
    sleep 1
done
grep -q '"stale":false' "$crash_dir/snap1.json"
crash_digest=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$crash_dir/snap1.json")
[[ -n "$crash_digest" ]]
ls "$crash_dir"/snapdir/snap-*.csnap >/dev/null

kill -9 "$crash_pid"
wait "$crash_pid" 2>/dev/null || true

"$rankd_dir/rankd" -addr "127.0.0.1:$crash_port" -scale 0.15 -vpscale 0.2 \
    -topn 10 -snapshot-dir "$crash_dir/snapdir" -snapshot-keep 2 \
    -max-inflight 1 -slow-probe 1s >"$crash_dir/rankd-run2.log" 2>&1 &
crash_pid=$!
# A warm start listens immediately (the multi-second rebuild runs in the
# background), so the first successful scrape races the rebuild and must
# catch the persisted generation: poll fast.
for _ in $(seq 1 600); do
    if ! kill -0 "$crash_pid" 2>/dev/null; then
        echo "rankd (run 2) exited before serving:" >&2
        cat "$crash_dir/rankd-run2.log" >&2
        exit 1
    fi
    curl -fsS "$crash_base/v1/snapshot" >"$crash_dir/snap2.json" 2>/dev/null && break
    sleep 0.05
done
if ! grep -q '"stale":true' "$crash_dir/snap2.json"; then
    echo "first post-restart response not served from the persisted snapshot:" >&2
    cat "$crash_dir/snap2.json" >&2
    exit 1
fi
grep -q "\"digest\":\"$crash_digest\"" "$crash_dir/snap2.json"
curl -fsS "$crash_base/readyz" | grep -q '^ok'

# The background rebuild publishes epoch 2, clears the stale marker, and —
# same seed, same world — reproduces the persisted content digest exactly
# (the daemon logs the warm-start verification).
for _ in $(seq 1 120); do
    curl -fsS "$crash_base/v1/snapshot" 2>/dev/null | grep -q '"stale":false' && break
    sleep 1
done
curl -fsS "$crash_base/v1/snapshot" >"$crash_dir/snap3.json"
grep -q '"stale":false' "$crash_dir/snap3.json"
grep -q "\"digest\":\"$crash_digest\"" "$crash_dir/snap3.json"
grep -q 'warm-start verified' "$crash_dir/rankd-run2.log"

# Overload shedding, deterministically: the zero-alloc handler finishes in
# microseconds, so organic traffic virtually never exceeds -max-inflight 1 —
# instead a probe=slow request (the -slow-probe CI hook) holds the single
# admission slot for 1s, and a concurrent request must shed 503 +
# Retry-After.
curl -fsS "$crash_base/v1/snapshot?probe=slow" >/dev/null &
probe_pid=$!
sleep 0.2
shed_code=$(curl -s -o /dev/null -D "$crash_dir/shed-headers.txt" \
    -w '%{http_code}' "$crash_base/v1/countries/AU")
if [[ "$shed_code" != 503 ]]; then
    echo "concurrent request got $shed_code, want 503 shed" >&2
    exit 1
fi
grep -qi 'retry-after: 1' "$crash_dir/shed-headers.txt"
wait "$probe_pid"

# loadgen classifies designed shedding (503 + Retry-After) as its own
# ServeShed class, not an error: drive it with -max-error-rate 0 while
# probe=slow holds starve the slot, so the run sheds heavily yet passes.
"$rankd_dir/loadgen" -url "$crash_base" -duration 2s -conc 8 -n 10 \
    -max-error-rate 0 -out "$crash_dir/serving-shed.json" >"$crash_dir/loadgen-shed.out" 2>&1 &
loadgen_pid=$!
sleep 0.3
# A probe can itself be shed if a loadgen request holds the slot at that
# exact instant; tolerate it — one successful 1s hold is plenty.
curl -fsS "$crash_base/v1/snapshot?probe=slow" >/dev/null || true
curl -fsS "$crash_base/v1/snapshot?probe=slow" >/dev/null || true
wait "$loadgen_pid"
grep -q 'ServeShed' "$crash_dir/loadgen-shed.out"
grep -q '"shed_rate"' "$crash_dir/serving-shed.json"
curl -fsS "$crash_base/metrics" >"$obs_metrics"
require_nonzero countryrank_rankd_shed_total
require_nonzero countryrank_rankd_snapshot_saves_total

kill "$crash_pid" 2>/dev/null || true
wait "$crash_pid" 2>/dev/null || true

# A daemon signalled during its cold start — first build in flight, nothing
# to serve yet — must cancel the build and exit 0, not die by signal. The
# world is large enough that the build outlasts the 100 ms by a wide margin.
"$rankd_dir/rankd" -addr "127.0.0.1:$crash_port" -scale 0.5 -vpscale 0.5 \
    -topn 10 >"$crash_dir/rankd-cold.log" 2>&1 &
crash_pid=$!
sleep 0.1
kill -TERM "$crash_pid"
cold_status=0
timeout 5 tail --pid="$crash_pid" -f /dev/null || cold_status=$?
if [[ "$cold_status" != 0 ]]; then
    echo "rankd still running 5s after SIGTERM during its cold start" >&2
    exit 1
fi
wait "$crash_pid" || cold_status=$?
if [[ "$cold_status" != 0 ]] || ! grep -q 'shutting down during cold start' "$crash_dir/rankd-cold.log"; then
    echo "rankd exited $cold_status on SIGTERM during its cold start, want a drained exit 0:" >&2
    cat "$crash_dir/rankd-cold.log" >&2
    exit 1
fi

echo '--- rankd drift smoke (seed-step rollover, drift metrics, history, rankdiff)'
# Roll rankd between two genuinely different worlds (-seed-step bumps the
# topogen seed per epoch), then require the whole drift layer to light up:
# non-zero drift metrics on /metrics, a two-epoch /debug/history, a served
# per-country history page, a drift summary in the shutdown manifest, and —
# the live/offline agreement — a rankdiff report over the two persisted
# generations whose churn score string-matches the live gauge.
drift_port=$((20000 + RANDOM % 20000))
drift_dir=$(mktemp -d)
go build -o "$drift_dir/rankdiff" ./cmd/rankdiff
trap 'kill "$rankd_pid" "$crash_pid" "$drift_pid" 2>/dev/null || true; rm -rf "$obs_dir" "$rankd_dir" "$crash_dir" "$drift_dir"' EXIT
"$rankd_dir/rankd" -addr "127.0.0.1:$drift_port" -scale 0.15 -vpscale 0.2 \
    -topn 10 -seed-step 1 -history 4 -snapshot-dir "$drift_dir/snapdir" \
    -manifest "$drift_dir/manifest.json" >"$drift_dir/rankd.log" 2>&1 &
drift_pid=$!
drift_base="http://127.0.0.1:$drift_port"
for _ in $(seq 1 120); do
    if ! kill -0 "$drift_pid" 2>/dev/null; then
        echo "rankd (drift run) exited before serving:" >&2
        cat "$drift_dir/rankd.log" >&2
        exit 1
    fi
    curl -fsS "$drift_base/v1/snapshot" >"$drift_dir/snap1.json" 2>/dev/null && break
    sleep 1
done
drift_digest1=$(sed -n 's/.*"digest":"\([0-9a-f]*\)".*/\1/p' "$drift_dir/snap1.json")
drift_cc=$(sed -n 's/.*"countries":\["\([A-Z][A-Z]*\)".*/\1/p' "$drift_dir/snap1.json")
[[ -n "$drift_digest1" && -n "$drift_cc" ]]

# SIGHUP rebuilds with the stepped seed: a different world, so the digest
# must move and the rollover must produce real drift.
kill -HUP "$drift_pid"
for _ in $(seq 1 120); do
    curl -fsS "$drift_base/v1/snapshot" 2>/dev/null | grep -q '"epoch":2' && break
    sleep 1
done
curl -fsS "$drift_base/v1/snapshot" >"$drift_dir/snap2.json"
grep -q '"epoch":2' "$drift_dir/snap2.json"
if grep -q "\"digest\":\"$drift_digest1\"" "$drift_dir/snap2.json"; then
    echo "seed-step rollover reproduced the same digest; no drift to measure" >&2
    exit 1
fi
# A third epoch, so the shutdown manifest below carries three epochs of
# stage spans.
kill -HUP "$drift_pid"
for _ in $(seq 1 120); do
    curl -fsS "$drift_base/v1/snapshot" 2>/dev/null | grep -q '"epoch":3' && break
    sleep 1
done
curl -fsS "$drift_base/v1/snapshot" | grep -q '"epoch":3'

curl -fsS "$drift_base/metrics" >"$drift_dir/metrics.txt"
obs_metrics="$drift_dir/metrics.txt"
require_nonzero countryrank_drift_churn_score
require_nonzero countryrank_drift_rollovers_total
require_nonzero countryrank_rankd_history_epochs
live_churn=$(awk '$1 == "countryrank_drift_churn_score" { print $2 }' "$drift_dir/metrics.txt")

# All three epochs appear in the debug history document and the served page.
curl -fsS "$drift_base/debug/history" >"$drift_dir/history.json"
grep -q '"epochs":\[1,2,3\]' "$drift_dir/history.json"
grep -q '"churn_cci"' "$drift_dir/history.json"
curl -fsS "$drift_base/v1/countries/$drift_cc/history" >"$drift_dir/cc-history.json"
grep -q "\"country\":\"$drift_cc\"" "$drift_dir/cc-history.json"
grep -q '"epochs":\[1,2,3\]' "$drift_dir/cc-history.json"

# Graceful shutdown writes the manifest with the drift summary attached.
kill "$drift_pid"
wait "$drift_pid" 2>/dev/null || true
grep -q '"drift_summary"' "$drift_dir/manifest.json"
grep -q '"drift_churn_score"' "$drift_dir/manifest.json"
# Its span tree holds the three epochs (two roots, nine lines each) and can
# never hold more than the trace's 32 roots' worth, however long the daemon
# ran (TestDaemonTraceBounded drives it past that).
span_lines=$(grep -o '"span_tree": *"[^"]*"' "$drift_dir/manifest.json" | grep -o '\\n' | wc -l)
if (( span_lines < 27 || span_lines > 32 / 2 * 9 + 1 )); then
    echo "shutdown manifest span_tree has $span_lines lines, want 27 (3 epochs) up to 145 (32 roots and the dropped-roots line)" >&2
    exit 1
fi

# The offline tool over the two newest persisted generations must reproduce
# the live score exactly — same diff code, same accumulation order, floats
# persisted as raw bits.
"$drift_dir/rankdiff" -snapshot-dir "$drift_dir/snapdir" >"$drift_dir/rankdiff.out"
grep -q 'top movers:' "$drift_dir/rankdiff.out"
if ! grep -qF "max churn $live_churn" "$drift_dir/rankdiff.out"; then
    echo "rankdiff churn disagrees with live countryrank_drift_churn_score=$live_churn:" >&2
    cat "$drift_dir/rankdiff.out" >&2
    exit 1
fi
# rankdiff reads a store, it does not open one: a mistyped directory is an
# error and is not created.
if "$drift_dir/rankdiff" -snapshot-dir "$drift_dir/nope" 2>"$drift_dir/nope.err"; then
    echo "rankdiff diffed a directory that does not exist" >&2
    exit 1
fi
grep -qF "$drift_dir/nope" "$drift_dir/nope.err"
[[ ! -e "$drift_dir/nope" ]]

echo '--- ledger (every rankd flag and series names a reader; the line count ROADMAP tracks)'
# The golden re-renders cmd/rankd/testdata/catalogue.txt from the flag set and
# the registry, searches this script, README, the verify skill, benchmark/,
# loadgen and every test for each entry, and fails on one nothing reads.
go test -count=1 -run TestCatalogueGolden ./cmd/rankd
echo "non-test Go outside benchmark/: $(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"

echo '--- size (non-test Go lines; the next re-anchor reads these instead of recounting)'
echo "internal/obs: $(find internal/obs -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
echo "internal/snapshot: $(find internal/snapshot -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
echo "cmd/ + internal/core + examples/ + countryrank.go: $(find cmd internal/core examples countryrank.go -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l)"

echo 'CI OK'
