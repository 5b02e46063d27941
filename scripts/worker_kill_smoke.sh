#!/bin/sh
# Worker-kill smoke: the multi-process half of the distributed chaos
# drills. Start two cvserver processes as shard workers (-journal-dir),
# coordinate a fleet validation across them with cvserver -coordinate,
# SIGKILL one worker mid-shard (real process death — torn journal tail
# and all), and require the merged summary line to be byte-identical to
# the same fleet scanned in-process. Exercises lease revocation, shard
# reassignment, and
# exactly-once merging against an actual killed process, where the
# in-test drills (TestChaosDistributed*) use httptest stand-ins. The
# faulted run keeps a coordinator journal; a second coordinate run over
# it must replay every entity, dispatch no shard, and print the same
# summary.
set -eu
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
w1_pid=""
w2_pid=""
cleanup() {
	[ -n "$w1_pid" ] && kill -9 "$w1_pid" 2>/dev/null || true
	[ -n "$w2_pid" ] && kill -9 "$w2_pid" 2>/dev/null || true
	rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/cvserver" ./cmd/cvserver

# Ports unlikely to collide in CI; override via env if they do.
W1_PORT="${W1_PORT:-19311}"
W2_PORT="${W2_PORT:-19312}"

# In-process baseline over the same generated fleet.
"$workdir/cvserver" -coordinate -fleet 16 >"$workdir/clean.out" 2>/dev/null

# Two workers; w1 is slowed so its shards are mid-flight when it dies.
"$workdir/cvserver" -addr "127.0.0.1:$W1_PORT" -journal-dir "$workdir/seg1" \
	-scan-delay 400ms -shard-workers 1 2>"$workdir/w1.log" &
w1_pid=$!
"$workdir/cvserver" -addr "127.0.0.1:$W2_PORT" -journal-dir "$workdir/seg2" \
	-shard-workers 1 2>"$workdir/w2.log" &
w2_pid=$!

# Wait for both workers to accept leases.
ready() {
	curl -fsS -o /dev/null "http://127.0.0.1:$1/readyz" 2>/dev/null ||
		wget -q -O /dev/null "http://127.0.0.1:$1/readyz" 2>/dev/null
}
i=0
until ready "$W1_PORT" && ready "$W2_PORT"; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "worker-kill-smoke: workers never became ready" >&2
		exit 1
	fi
	sleep 0.1
done

# SIGKILL w1 mid-run: by 1.2s it is inside its first shard (400ms/entity)
# but has not finished it, so at least one lease must be revoked and
# reassigned to w2.
(
	sleep 1.2
	kill -9 "$w1_pid" 2>/dev/null || true
) &
killer_pid=$!

"$workdir/cvserver" -coordinate -fleet 16 \
	-workers "http://127.0.0.1:$W1_PORT,http://127.0.0.1:$W2_PORT" \
	-shard-size 4 -lease-ttl 2s -journal "$workdir/coord.cvj" \
	>"$workdir/dist.out" 2>"$workdir/coord.log"
wait "$killer_pid" 2>/dev/null || true
w1_pid="" # already dead; don't re-kill in cleanup

if ! kill -0 "$w2_pid" 2>/dev/null; then
	echo "worker-kill-smoke: surviving worker died" >&2
	cat "$workdir/w2.log" >&2
	exit 1
fi

if ! cmp -s "$workdir/dist.out" "$workdir/clean.out"; then
	echo "worker-kill-smoke: distributed summary differs from clean run:" >&2
	echo "  distributed: $(cat "$workdir/dist.out")" >&2
	echo "  clean:       $(cat "$workdir/clean.out")" >&2
	echo "--- coordinator log ---" >&2
	cat "$workdir/coord.log" >&2
	exit 1
fi

if ! grep -q 'lease_reassignments=[1-9]' "$workdir/coord.log"; then
	echo "worker-kill-smoke: no lease was reassigned; the kill landed too late to test anything:" >&2
	cat "$workdir/coord.log" >&2
	exit 1
fi

# Coordinator resume: a re-run over the faulted run's coordinator journal
# replays every entity from it and ships nothing to the surviving worker.
"$workdir/cvserver" -coordinate -fleet 16 \
	-workers "http://127.0.0.1:$W2_PORT" \
	-shard-size 4 -lease-ttl 2s -journal "$workdir/coord.cvj" \
	>"$workdir/resume.out" 2>"$workdir/resume.log"

if ! cmp -s "$workdir/resume.out" "$workdir/clean.out"; then
	echo "worker-kill-smoke: resumed coordinator summary differs from clean run:" >&2
	echo "  resumed: $(cat "$workdir/resume.out")" >&2
	echo "  clean:   $(cat "$workdir/clean.out")" >&2
	cat "$workdir/resume.log" >&2
	exit 1
fi

if ! grep -q 'shards dispatched=0 ' "$workdir/resume.log"; then
	echo "worker-kill-smoke: resumed coordinator dispatched shards instead of replaying its journal:" >&2
	cat "$workdir/resume.log" >&2
	exit 1
fi

echo "worker-kill-smoke: ok ($(cat "$workdir/dist.out"))"
