#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload pose_rp --seed 1 --seconds 20 --trace 0

The arguments pass through to the benchmark binary (see
perfbench/src/main.rs). The build goes to $CARGO_TARGET_DIR, or to
.bench_build under the repository root when it is unset. Build output
goes to standard error, so the last line of standard output is the
benchmark's result object. The exit code is the build's when the build
fails, otherwise the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# Sources whose content identifies the measured program when the
# checkout carries no git metadata.
SOURCE_DIRS = ("crates", "src", "third_party", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock")
RUN_TIMEOUT_S = 175


def source_digest():
    """SHA-256 over every source file, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, f) for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs[:] = sorted(x for x in dirs if x not in ("target", ".bench_build"))
            paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
    return out.stdout.strip() if out.returncode == 0 else None


def commit():
    """The git commit (marked when the tree has changes), or a digest of
    the sources outside a git checkout."""
    try:
        head = git("rev-parse", "HEAD")
        if head:
            return head + ("-dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.SubprocessError):
        pass
    return "sources-sha256:" + source_digest()


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_RUSTC"] = rustc_version()
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
