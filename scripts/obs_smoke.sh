#!/bin/sh
# obs_smoke.sh — boot udrd with the admin HTTP surface and verify the
# scrape contract end to end: /healthz answers 200, /metrics returns a
# non-empty Prometheus exposition, and the acceptance metric families
# are present. Fails on any non-200 or an empty body. CI runs this as
# the obs-smoke job; locally: make obs-smoke.
set -eu

ADMIN_ADDR="${ADMIN_ADDR:-127.0.0.1:19611}"
LDAP_ADDR="${LDAP_ADDR:-127.0.0.1:13890}"
WORKDIR="$(mktemp -d)"
UDRD_PID=""

cleanup() {
    [ -n "$UDRD_PID" ] && kill "$UDRD_PID" 2>/dev/null || true
    [ -n "$UDRD_PID" ] && wait "$UDRD_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fetch() {
    # fetch <url> <outfile>: curl when present, else a tiny Go helper —
    # CI images have curl, developer sandboxes may not.
    if command -v curl >/dev/null 2>&1; then
        curl -fsS -o "$2" "$1"
    else
        go run ./scripts/httpget "$1" >"$2"
    fi
}

echo "obs-smoke: building udrd"
go build -o "$WORKDIR/udrd" ./cmd/udrd

echo "obs-smoke: starting udrd (admin on $ADMIN_ADDR)"
"$WORKDIR/udrd" \
    -addr "$LDAP_ADDR" \
    -admin "$ADMIN_ADDR" \
    -subs 20 \
    -wal-dir "$WORKDIR/wal" -wal-sync \
    -checkpoint-interval 500ms \
    -durability quorum -quorum-policy majority \
    >"$WORKDIR/udrd.log" 2>&1 &
UDRD_PID=$!

# Poll /healthz until the daemon is up (or fail after ~10s).
i=0
until fetch "http://$ADMIN_ADDR/healthz" "$WORKDIR/healthz.json" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "obs-smoke: FAIL — /healthz never answered" >&2
        cat "$WORKDIR/udrd.log" >&2
        exit 1
    fi
    if ! kill -0 "$UDRD_PID" 2>/dev/null; then
        echo "obs-smoke: FAIL — udrd exited during startup" >&2
        cat "$WORKDIR/udrd.log" >&2
        exit 1
    fi
    sleep 0.2
done
grep -q '"status": "ok"' "$WORKDIR/healthz.json" || {
    echo "obs-smoke: FAIL — /healthz body unexpected:" >&2
    cat "$WORKDIR/healthz.json" >&2
    exit 1
}
echo "obs-smoke: /healthz ok"

fetch "http://$ADMIN_ADDR/metrics" "$WORKDIR/metrics.txt"
[ -s "$WORKDIR/metrics.txt" ] || {
    echo "obs-smoke: FAIL — /metrics returned an empty body" >&2
    exit 1
}

# The acceptance metric families (ISSUE 6): site-labeled per-op latency
# histogram, replication queue depth, WAL fsyncs-per-commit ratio,
# anti-entropy rows shipped, migration-progress gauge. ISSUE 7 adds
# the FE/PoA read-cache counters; ISSUE 8 the quorum-durability
# families (the daemon above runs with -durability quorum); ISSUE 9
# the incremental-checkpoint families (the daemon above runs with
# -checkpoint-interval); ISSUE 10 the request-tracing counters.
for family in \
    "udr_poa_op_latency_seconds histogram" \
    "udr_replication_queue_depth gauge" \
    "udr_replication_acks_pending gauge" \
    "udr_replication_quorum_size gauge" \
    "udr_replication_quorum_ack_wait_seconds histogram" \
    "udr_wal_fsyncs_per_commit gauge" \
    "udr_antientropy_rows_shipped_total counter" \
    "udr_migration_phase gauge" \
    "udr_fe_cache_hits_total counter" \
    "udr_fe_cache_misses_total counter" \
    "udr_fe_cache_evictions_total counter" \
    "udr_fe_cache_invalidations_total counter" \
    "udr_fe_cache_entries gauge" \
    "udr_locator_map_entries gauge" \
    "udr_locator_map_bytes gauge" \
    "udr_wal_checkpoints_total counter" \
    "udr_wal_checkpoint_duration_seconds gauge" \
    "udr_wal_checkpoint_bytes gauge" \
    "udr_wal_checkpoint_csn gauge" \
    "udr_wal_segments gauge" \
    "udr_trace_spans_total counter" \
    "udr_trace_sampled_total counter" \
    "udr_trace_dropped_total counter"; do
    if ! grep -q "^# TYPE $family\$" "$WORKDIR/metrics.txt"; then
        echo "obs-smoke: FAIL — missing family: # TYPE $family" >&2
        exit 1
    fi
done
echo "obs-smoke: all acceptance metric families present"

# A real labeled sample proves the topology collectors ran.
grep -q '^udr_partition_rows{site=' "$WORKDIR/metrics.txt" || {
    echo "obs-smoke: FAIL — no labeled udr_partition_rows sample" >&2
    exit 1
}

# With a 500ms cadence at least one checkpoint must have completed by
# now on every element; a labeled non-zero sample proves the ticker
# and the stats plumbing are live.
sleep 1
fetch "http://$ADMIN_ADDR/metrics" "$WORKDIR/metrics2.txt"
grep -q '^udr_wal_checkpoints_total{site=' "$WORKDIR/metrics2.txt" || {
    echo "obs-smoke: FAIL — no labeled udr_wal_checkpoints_total sample" >&2
    exit 1
}
if ! grep '^udr_wal_checkpoints_total{site=' "$WORKDIR/metrics2.txt" | grep -qv ' 0$'; then
    echo "obs-smoke: FAIL — no checkpoint completed under -checkpoint-interval" >&2
    grep '^udr_wal_checkpoints_total' "$WORKDIR/metrics2.txt" >&2
    exit 1
fi
echo "obs-smoke: checkpoints ticking"

# The tracing surface answers even when nothing slow happened yet: a
# 200 with a well-formed (possibly empty) listing.
fetch "http://$ADMIN_ADDR/trace/slow" "$WORKDIR/trace_slow.json"
grep -q '"traces"' "$WORKDIR/trace_slow.json" || {
    echo "obs-smoke: FAIL — /trace/slow body unexpected" >&2
    cat "$WORKDIR/trace_slow.json" >&2
    exit 1
}
echo "obs-smoke: /trace/slow ok"

fetch "http://$ADMIN_ADDR/status" "$WORKDIR/status.json"
grep -q '"partitions"' "$WORKDIR/status.json" || {
    echo "obs-smoke: FAIL — /status body unexpected" >&2
    exit 1
}
grep -q '"durability": "quorum"' "$WORKDIR/status.json" || {
    echo "obs-smoke: FAIL — /status missing per-partition durability level" >&2
    exit 1
}
echo "obs-smoke: /status ok"

echo "obs-smoke: PASS ($(grep -c '^# TYPE ' "$WORKDIR/metrics.txt") metric families exported)"
