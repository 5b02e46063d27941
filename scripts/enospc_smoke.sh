#!/bin/sh
# Disk-pressure smoke: fill the disk under a journaled fleet scan and
# require graceful degradation end to end — the scan completes, every
# entity is reported, the degradation shows up in the summary line, the
# journal stats, and the Prometheus rendering, and a follow-up run with
# the pressure cleared resumes journaling.
#
# Two modes run the same assertions:
#   enospc_smoke.sh [faults]  the deterministic CV_FAULTS ENOSPC injector;
#                             needs no privileges and never mounts;
#   enospc_smoke.sh tmpfs     a real size-capped tmpfs; where mounting one
#                             fails (no privileges) it prints a skip line
#                             and exits 0.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-faults}"
case "$mode" in
faults | tmpfs) ;;
*)
	echo "usage: $0 [faults|tmpfs]" >&2
	exit 2
	;;
esac

workdir=$(mktemp -d)
tmpfs_dir=""
cleanup() {
	if [ -n "$tmpfs_dir" ]; then
		umount "$tmpfs_dir" 2>/dev/null || true
	fi
	rm -rf "$workdir"
}
trap cleanup EXIT

ckpt="$workdir/fleet.cvj"
if [ "$mode" = "tmpfs" ]; then
	mount_dir="$workdir/full-disk"
	mkdir -p "$mount_dir"
	if ! mount -t tmpfs -o size=4k tmpfs "$mount_dir" 2>/dev/null; then
		echo "enospc-smoke(tmpfs): skipped: cannot mount a tmpfs here (needs privileges)"
		exit 0
	fi
	tmpfs_dir="$mount_dir"
	ckpt="$tmpfs_dir/fleet.cvj"
else
	# Deterministic ENOSPC from the third journal append onward, via the
	# same spec an operator would use.
	CV_FAULTS="op=journal-append kind=enospc after=2"
	export CV_FAULTS
fi

go build -o "$workdir/fleetscan" ./examples/fleetscan

# Run 1: the disk fills mid-scan. The scan itself must still exit 0.
if ! "$workdir/fleetscan" -checkpoint "$ckpt" >"$workdir/run1.out" 2>"$workdir/run1.err"; then
	echo "enospc-smoke($mode): scan failed under disk pressure (must complete degraded):" >&2
	cat "$workdir/run1.err" >&2
	exit 1
fi
if ! grep -q 'journal degraded' "$workdir/run1.err"; then
	echo "enospc-smoke($mode): no degraded-journal operator log on stderr" >&2
	cat "$workdir/run1.err" >&2
	exit 1
fi
if ! grep -q 'journal_degraded=[1-9]' "$workdir/run1.out"; then
	echo "enospc-smoke($mode): summary does not account the degradation" >&2
	grep 'scanned=' "$workdir/run1.out" >&2 || true
	exit 1
fi
# End-of-run journal state may be degraded OR already re-probed back to
# health (truncating a torn tail can itself free space on a full tmpfs);
# what must hold is that failed appends were counted.
if ! grep -Eq 'append_errors=[1-9]' "$workdir/run1.out"; then
	echo "enospc-smoke($mode): journal stats line counts no append errors" >&2
	exit 1
fi
if ! grep -Eq 'configvalidator_journal_append_errors_total [1-9]' "$workdir/run1.out"; then
	echo "enospc-smoke($mode): append errors missing from Prometheus rendering" >&2
	exit 1
fi

# Run 2: the pressure clears (faults disarmed / the journal leaves the
# full tmpfs). Journaling must resume: records append, nothing degraded.
unset CV_FAULTS || true
if [ "$mode" = "tmpfs" ]; then
	# The wounded journal moves to a disk with space; recovery handles
	# any tail ENOSPC tore mid-record.
	cp "$ckpt" "$workdir/fleet.cvj"
	ckpt="$workdir/fleet.cvj"
fi
if ! "$workdir/fleetscan" -checkpoint "$ckpt" >"$workdir/run2.out" 2>"$workdir/run2.err"; then
	echo "enospc-smoke($mode): follow-up run failed:" >&2
	cat "$workdir/run2.err" >&2
	exit 1
fi
if ! grep -q 'journal_degraded=0' "$workdir/run2.out"; then
	echo "enospc-smoke($mode): follow-up run still reports degraded results" >&2
	exit 1
fi
if ! grep -q 'degraded=false' "$workdir/run2.out"; then
	echo "enospc-smoke($mode): journal still degraded after pressure cleared" >&2
	exit 1
fi
if ! grep -Eq 'appends=[1-9]' "$workdir/run2.out"; then
	echo "enospc-smoke($mode): journaling did not resume on the follow-up run" >&2
	exit 1
fi
echo "enospc-smoke: ok (mode=$mode)"
