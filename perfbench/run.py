#!/usr/bin/env python3
"""End-to-end benchmark of the reconstruction-privacy server and publisher.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload query_hot --seed 1 --seconds 10 --trace 0

It builds `rpctl` (the workspace's CLI) and `perfbench` (the Rust half of
this benchmark, `perfbench/harness`) in release mode, generates every input
from `--seed`, drives the real binaries as a client would, checks every
answer, and prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json; with
`--trace 1` the run is the traced run, which times each layer's public
functions in-process and prints the per-layer metrics. Progress, the human
summary and the run's provenance go to standard error. See
perfbench/README.md for the workloads, metrics and fixed settings.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("query_hot", "query_batch")

# Fixed settings, recorded in every result's provenance.
SETTINGS = {
    "cache_entries": 1024,  # rpctl serve default answer cache
    "commit_batch": 64,  # traced run: StreamPublisher commit batch
    "batch_size": 32,  # query_batch: queries per batch line
    # query_hot: open-loop count lines per second, about half the
    # capacity of the seed (1.0-1.2e5 lines/s on the 2-vCPU reference VM,
    # one connection with eight pipelined requests in flight).
    "offered_rate_per_s": 50000,
    # Set-up time is the fastest of this many unpinned server starts, half
    # before and half after the load: on a shared host single starts fall
    # near 50 or near 80 ms in spells that last seconds, and the fastest of
    # starts made in two spells is the steadiest figure.
    "setup_spawns": 40,
    # query_hot only, with two or more CPUs: `rpctl serve` runs on CPU 0
    # and the load generator on CPU 1. Unpinned, its µs-scale closed loop
    # moves ±15% between runs with thread placement; the other workloads
    # are steadier unpinned (and pinning halves query_batch's server).
    "query_hot_server_cpu": 0,
    "query_hot_client_cpu": 1,
    "connections": 2,
    # Closed loops (query_hot's capacity phase, query_batch): one thread
    # per connection, each with one request in flight. A pipelined
    # connection measures a CPU-bound server, whose speed on a shared host
    # drifts by up to half within minutes; two waiting callers are bound
    # by round trips, which drift far less.
    "closed_loop_in_flight": 1,
}


def pinned(cpu):
    """A `preexec_fn` confining the child to one CPU (no-op on one CPU)."""
    if (os.cpu_count() or 1) < 2:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result."""


def run_checked(cmd, **kwargs):
    """Runs a command, echoing its output to stderr; raises on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout.decode()


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


# The end-to-end run's correctness check: every answer byte-equal to an
# in-process `QueryService` over the same artifact.
ANSWERS_CHECK = "answers_equal_service"

# Latency printed for a percentile that falls on failed requests (which
# miss every limit); `perfbench load` prints those as null.
ABOVE_EVERY_LIMIT_NS = 1e15


def ns(value):
    return ABOVE_EVERY_LIMIT_NS if value is None else value


class Bench:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        for required in ("Cargo.toml", "Cargo.lock", "crates/experiments/Cargo.toml"):
            if not os.path.isfile(os.path.join(self.root, required)):
                raise BenchError(f"{required} not found: run from the root of a source checkout")
        self.target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.rpctl = os.path.join(self.target, "release", "rpctl")
        self.perfbench = os.path.join(self.target, "release", "perfbench")
        self.scale = args.scale
        self.work = os.path.join(self.target, "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
        self.children = []

    # -- build and inputs ---------------------------------------------------

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-p", "rp-experiments", "--bin", "rpctl"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join(BENCH_DIR, "harness", "Cargo.toml")],
        ):
            proc = subprocess.run(cmd, cwd=self.root, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)}")

    def data(self):
        """The seed's inputs, generated once per checkout and reused."""
        final = os.path.join(self.target, "perfbench-data", f"{self.scale}-{self.args.seed}")
        if os.path.isfile(os.path.join(final, "meta.json")):
            return final
        tmp = f"{final}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        meta = last_json(run_checked([self.perfbench, "gen", "--seed", str(self.args.seed),
                                      "--scale", self.scale, "--out", tmp]))
        for name, sa, key in (("census", "Occupation", "census_publish_seed"),
                              ("adult", "Income", "adult_publish_seed")):
            run_checked([self.rpctl, "publish", "--input", os.path.join(tmp, f"{name}.csv"),
                         "--sa", sa, "--seed", str(meta[key]),
                         "--output", os.path.join(tmp, f"{name}.rppub")])
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
        return final

    # -- processes ----------------------------------------------------------

    def spawn_server(self, serve_args, preexec_fn=None):
        """Starts `rpctl serve` on a free port; returns (proc, addr, setup_s,
        banner) where setup_s runs from the spawn to the first HELLO banner."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([self.rpctl, "serve", *serve_args, "--listen", "127.0.0.1:0"],
                                cwd=self.root, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                preexec_fn=preexec_fn)
        self.children.append(proc)
        fd, seen, addr = proc.stderr.fileno(), b"", None
        deadline = time.monotonic() + 60
        while addr is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError("rpctl serve did not start listening: " + seen.decode(errors="replace"))
            chunk = os.read(fd, 65536)
            if not chunk:
                raise BenchError("rpctl serve exited: " + seen.decode(errors="replace"))
            seen += chunk
            for line in seen.decode(errors="replace").splitlines(keepends=True):
                if line.startswith("listening on ") and line.endswith("\n"):
                    addr = line.split()[2]
        host, port = addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            banner = sock.makefile("rb").readline().decode()
            setup_s = time.perf_counter() - t0
            sock.sendall(b"quit\n")
        if not banner.startswith("HELLO "):
            raise BenchError(f"unexpected banner `{banner.strip()}`")
        # The server may log on stderr later; a full pipe would stall it.
        proc.stderr.close()
        return proc, addr, setup_s, banner.strip()

    def pin(self, role):
        """The `preexec_fn` placing a query_hot server or client on its CPU."""
        if self.args.workload != "query_hot":
            return None
        return pinned(SETTINGS[f"query_hot_{role}_cpu"])

    def stop(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()

    def stop_all(self):
        for proc in self.children:
            try:
                self.stop(proc)
            except OSError:
                pass

    @staticmethod
    def peak_rss_mb(pid):
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    @staticmethod
    def cpu_s(pid):
        """User + system CPU seconds of a live process (all its threads,
        exited ones included)."""
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    @staticmethod
    def steal_ticks():
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if len(fields) > 8 else 0

    def setup_times(self, serve_args):
        """Half of the `setup_spawns` unpinned server starts."""
        times = []
        for _ in range(SETTINGS["setup_spawns"] // 2):
            proc, _, setup_s, _ = self.spawn_server(serve_args)
            self.stop(proc)
            times.append(setup_s)
        return times

    def load(self, mode, addr, data, seconds, extra):
        tamper = self.args.tamper == ANSWERS_CHECK
        cmd = [self.perfbench, "load", "--mode", mode, "--addr", addr, "--dir", data,
               "--seed", str(self.args.seed), "--seconds", str(seconds),
               "--tamper", "1" if tamper else "0", *extra]
        return last_json(run_checked(cmd, preexec_fn=self.pin("client")))

    # -- workloads ----------------------------------------------------------

    def serve_workload(self, data):
        """query_hot and query_batch: one live server."""
        census = os.path.join(data, "census.rppub")
        if self.args.workload == "query_hot":
            serve_args = ["--publication", census]
            rate = 2000 if self.scale == "toy" else SETTINGS["offered_rate_per_s"]
            mode, extra = "hot", ["--rate", str(rate), "--publication", census]
        else:
            serve_args = ["--release", f"census={census}",
                          "--release", f"adult={os.path.join(data, 'adult.rppub')}"]
            mode, extra = "batch", ["--publication", census]
        setup = self.setup_times(serve_args)
        proc, addr, _, banner = self.spawn_server(serve_args, self.pin("server"))
        cpu0, steal0 = self.cpu_s(proc.pid), self.steal_ticks()
        result = self.load(mode, addr, data, self.args.seconds, extra)
        cpu = self.cpu_s(proc.pid) - cpu0
        steal = self.steal_ticks() - steal0
        rss = self.peak_rss_mb(proc.pid)
        self.stop(proc)
        setup += self.setup_times(serve_args)

        # Wrong answers are the check; refusals, errors and lost requests
        # count as failed requests.
        checks = {ANSWERS_CHECK: result["wrong"] == 0}
        failed = result["failed"]
        records = int(next(t for t in banner.split() if t.startswith("records=")).split("=")[1])
        bytes_per_record = os.path.getsize(census) / records
        timed = result["open"] if "open" in result else result["closed"]
        closed = result["closed"]
        metrics = {
            "setup_s": (min(setup), "s"),
            "ops_per_s": (closed["ops_per_s"] or 0.0, "1/s"),
            "latency_ms": (ns(timed["p50_ns"]) / 1e6, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "bytes_per_record": (bytes_per_record, "B"),
        }
        detail = {"load": result, "server_cpu_s": cpu, "steal_ticks": steal,
                  "p90_ms": ns(timed["p90_ns"]) / 1e6, "p99_ms": ns(timed["p99_ns"]) / 1e6}
        return metrics, checks, result["attempted"], failed, detail

    def traced(self, data):
        cmd = [self.perfbench, "trace", "--workload", self.args.workload, "--dir", data,
               "--work", self.work, "--seed", str(self.args.seed), "--scale", self.scale]
        if self.args.tamper:
            cmd += ["--tamper", self.args.tamper]
        result = last_json(run_checked(cmd))
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        checks = {name: bool(ok) for name, ok in result["checks"].items()}
        failed = sum(not ok for ok in checks.values())
        return metrics, checks, result["attempted"], failed, {}

    # -- provenance ---------------------------------------------------------

    def provenance(self):
        def cmd_out(cmd):
            try:
                return subprocess.run(cmd, cwd=self.root, stdout=subprocess.PIPE,
                                      stderr=subprocess.DEVNULL).stdout.decode().strip() or "unknown"
            except OSError:
                return "unknown"

        digest = hashlib.sha256()
        for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
            path = os.path.join(self.root, top)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
            for name in files:
                digest.update(os.path.relpath(name, self.root).encode())
                with open(name, "rb") as f:
                    digest.update(f.read())
        return {
            "commit": cmd_out(["git", "rev-parse", "HEAD"]),
            "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "rustc": cmd_out(["rustc", "--version"]),
            "seed": self.args.seed,
            "scale": self.scale,
            "wal_filesystem": filesystem_of(self.work),
            "settings": SETTINGS,
        }

    def run(self):
        self.build()
        data = self.data()
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        try:
            outcome = self.traced(data) if self.args.trace else self.serve_workload(data)
        finally:
            self.stop_all()
            shutil.rmtree(self.work, ignore_errors=True)
        metrics, checks, attempted, failed, detail = outcome
        if self.args.tamper and self.args.tamper not in checks:
            raise BenchError(f"--tamper {self.args.tamper}: no such check (checks: {', '.join(checks)})")
        log(json.dumps({"provenance": self.provenance(), "checks": checks, "detail": detail}))
        for name, (value, unit) in metrics.items():
            log(f"  {name:28s} {value:14.6g} {unit}")
        log(f"  error_ratio {failed}/{attempted} = {failed / max(attempted, 1):.6g}")
        correct = failed == 0 and all(checks.values())
        return {
            "correct": correct,
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def filesystem_of(path):
    """The filesystem type of the mount holding `path`."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                parts = line.split()
                mount = parts[4]
                sep = parts.index("-")
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, fstype = mount, parts[sep + 1]
    except OSError:
        pass
    return fstype


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: seconds-scale inputs for the benchmark's own tests")
    parser.add_argument("--tamper", metavar="CHECK",
                        help="make the named correctness check expect a wrong answer; "
                             "the run must report that check as failed")
    args = parser.parse_args()
    bench = None
    try:
        bench = Bench(args)
        result = bench.run()
    except BenchError as e:
        log(f"error: {e}")
        return 1
    finally:
        if bench is not None:
            bench.stop_all()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
