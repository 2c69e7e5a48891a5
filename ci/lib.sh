# Shared by the binary smokes (audit_smoke.sh, crash_recovery_smoke.sh,
# shard_smoke.sh): a scratch directory WORK, the background processes they
# start, and the port checks around them. Source it after `set -euo pipefail`;
# on exit every process started through `start` is killed and WORK removed.

BIN=${BIN:-/tmp}
WORK=$(mktemp -d)
PIDS=()
trap 'kill "${PIDS[@]}" 2>/dev/null || true; rm -rf "$WORK"' EXIT

port_free() { # host:port — a stale listener would absorb the whole test
	if (exec 3<>"/dev/tcp/${1%:*}/${1#*:}") 2>/dev/null; then
		echo "port $1 is already in use; refusing to run against a stale server" >&2
		return 1
	fi
	return 0
}

wait_port() { # pid host:port — fails fast if the server process died
	for _ in $(seq 1 100); do
		if ! kill -0 "$1" 2>/dev/null; then
			echo "server for $2 (pid $1) exited during startup" >&2
			return 1
		fi
		if (exec 3<>"/dev/tcp/${2%:*}/${2#*:}") 2>/dev/null; then
			exec 3>&- 3<&-
			return 0
		fi
		sleep 0.1
	done
	echo "server on $2 never came up" >&2
	return 1
}

start() { # var log cmd... — run cmd in the background, output to log, pid to var
	local var=$1 log=$2
	shift 2
	"$@" >"$log" 2>&1 &
	printf -v "$var" '%s' "$!"
	PIDS+=("$!")
}
