#!/bin/sh
# cluster_demo.sh — the "production surface" demo: three udrd nodes
# serving real TCP LDAP with admin HTTP listeners, a CLI workload
# against each, one node killed mid-run. Verifies that the survivors
# keep answering /metrics and /trace/slow while the demo runs, that
# the killed node exits cleanly with its one-line shutdown summary
# (ops served, last CSN, traces flushed), that sampled request
# traces are reachable over both HTTP and the udrctl LDAP extended
# op, and that udrctl status and GET /status report the same
# placement. CI runs this as the cluster-demo job; locally: make cluster-demo.
set -eu

HOST="${HOST:-127.0.0.1}"
LDAP_BASE="${LDAP_BASE:-13901}"  # nodes listen on BASE, BASE+1, BASE+2
ADMIN_BASE="${ADMIN_BASE:-19621}"
WORKDIR="$(mktemp -d)"
PIDS=""

cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in $PIDS; do
        wait "$pid" 2>/dev/null || true
    done
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

ldap_port() { echo $((LDAP_BASE + $1 - 1)); }
admin_port() { echo $((ADMIN_BASE + $1 - 1)); }

echo "cluster-demo: building udrd + udrctl"
go build -o "$WORKDIR/udrd" ./cmd/udrd
go build -o "$WORKDIR/udrctl" ./cmd/udrctl

# Three nodes. Each udrd hosts a full geo-replicated UDR (three sites,
# quorum durability, WAL fsync) and fronts it with LDAP + admin HTTP on
# its own ports; sampling at rate 1 so every request leaves a trace.
for n in 1 2 3; do
    "$WORKDIR/udrd" \
        -addr "$HOST:$(ldap_port $n)" \
        -admin "$HOST:$(admin_port $n)" \
        -subs 10 \
        -wal-dir "$WORKDIR/wal$n" -wal-sync \
        -durability quorum -quorum-policy majority \
        -trace-sample 1 \
        >"$WORKDIR/node$n.log" 2>&1 &
    PIDS="$PIDS $!"
    eval "PID$n=$!"
done
echo "cluster-demo: started 3 nodes (LDAP $(ldap_port 1)-$(ldap_port 3), admin $(admin_port 1)-$(admin_port 3))"

for n in 1 2 3; do
    i=0
    until fetch "http://$HOST:$(admin_port $n)/healthz" "$WORKDIR/healthz$n.json" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "cluster-demo: FAIL — node $n /healthz never answered" >&2
            cat "$WORKDIR/node$n.log" >&2
            exit 1
        fi
        sleep 0.2
    done
done
echo "cluster-demo: all nodes healthy"

# Workload: reads and writes through every node's LDAP interface. The
# -trace-sample 1 daemons record a trace per operation.
for n in 1 2 3; do
    a="$HOST:$(ldap_port $n)"
    "$WORKDIR/udrctl" -addr "$a" get sub-00000001 >/dev/null
    "$WORKDIR/udrctl" -addr "$a" search '(msisdn=34600000003)' >/dev/null
    "$WORKDIR/udrctl" -addr "$a" set sub-00000002 servingNode "mme-demo-$n" >/dev/null
    "$WORKDIR/udrctl" -addr "$a" set sub-00000005 servingNode "sgsn-demo-$n" >/dev/null
done
echo "cluster-demo: workload done (reads + quorum writes on every node)"

# The CLI trace surface answers over LDAP on a live node.
"$WORKDIR/udrctl" -addr "$HOST:$(ldap_port 1)" trace recent >"$WORKDIR/trace_cli.txt"
grep -q 'spans' "$WORKDIR/trace_cli.txt" || {
    echo "cluster-demo: FAIL — udrctl trace recent listed nothing" >&2
    cat "$WORKDIR/trace_cli.txt" >&2
    exit 1
}
echo "cluster-demo: udrctl trace recent lists sampled traces"

# Both control-plane codecs render one status report: udrctl status
# (LDAP) and GET /status (HTTP) must name the same master element for
# a partition.
"$WORKDIR/udrctl" -addr "$HOST:$(ldap_port 1)" status >"$WORKDIR/status_cli.txt"
fetch "http://$HOST:$(admin_port 1)/status" "$WORKDIR/status1.json"
part=$(awk '$1 == "partition" {print $2; exit}' "$WORKDIR/status_cli.txt")
cli_master=$(awk -v p="$part" '$1 == "partition" && $2 == p {f = 1; next}
    f && $1 == "master" {print $2; exit}' "$WORKDIR/status_cli.txt")
http_master=$(awk -v p="\"$part\"," '$1 == "\"id\":" && $2 == p {f = 1}
    f && $1 == "\"element\":" {gsub(/[",]/, "", $2); print $2; exit}' "$WORKDIR/status1.json")
if [ -z "$cli_master" ] || [ "$cli_master" != "$http_master" ]; then
    echo "cluster-demo: FAIL — partition '$part' master: udrctl status '$cli_master', GET /status '$http_master'" >&2
    cat "$WORKDIR/status_cli.txt" "$WORKDIR/status1.json" >&2
    exit 1
fi
echo "cluster-demo: udrctl status and GET /status agree: $part mastered on $cli_master"

# Kill node 3 mid-run and let the survivors carry on.
kill -TERM "$PID3"
wait "$PID3" 2>/dev/null || true
grep -q 'udrd: shutdown after' "$WORKDIR/node3.log" || {
    echo "cluster-demo: FAIL — killed node logged no shutdown summary" >&2
    cat "$WORKDIR/node3.log" >&2
    exit 1
}
echo "cluster-demo: node 3 exited cleanly: $(grep 'udrd: shutdown after' "$WORKDIR/node3.log")"

# Survivors still serve traffic and the full observability surface.
for n in 1 2; do
    a="$HOST:$(admin_port $n)"
    "$WORKDIR/udrctl" -addr "$HOST:$(ldap_port $n)" get sub-00000004 >/dev/null

    fetch "http://$a/metrics" "$WORKDIR/metrics$n.txt"
    for family in udr_trace_spans_total udr_trace_sampled_total udr_poa_op_latency_seconds; do
        grep -q "^# TYPE $family" "$WORKDIR/metrics$n.txt" || {
            echo "cluster-demo: FAIL — node $n /metrics missing $family" >&2
            exit 1
        }
    done
    if ! grep '^udr_trace_sampled_total' "$WORKDIR/metrics$n.txt" | grep -qv ' 0$'; then
        echo "cluster-demo: FAIL — node $n sampled no traces at rate 1" >&2
        grep '^udr_trace_' "$WORKDIR/metrics$n.txt" >&2
        exit 1
    fi

    fetch "http://$a/trace/slow" "$WORKDIR/trace_slow$n.json"
    grep -q '"traces"' "$WORKDIR/trace_slow$n.json" || {
        echo "cluster-demo: FAIL — node $n /trace/slow body unexpected" >&2
        cat "$WORKDIR/trace_slow$n.json" >&2
        exit 1
    }
    fetch "http://$a/trace/recent" "$WORKDIR/trace_recent$n.json"
    grep -q '"traceId"' "$WORKDIR/trace_recent$n.json" || {
        echo "cluster-demo: FAIL — node $n /trace/recent holds no traces" >&2
        cat "$WORKDIR/trace_recent$n.json" >&2
        exit 1
    }
done
echo "cluster-demo: survivors serve /metrics, /trace/recent and /trace/slow"

echo "cluster-demo: PASS"
