#!/usr/bin/env python3
"""Reruns the committed-baseline smoke commands and compares their JSON lines.

Every row in tests/baselines/ is virtual-time deterministic, so drift means a
behaviour change (or a stats-json schema change that forgot to regenerate the
baseline). Byte-compared baselines must match exactly; dict-compared ones
match after dropping the host wall-clock and thread fields, whose values vary
run to run. To regenerate a baseline after a deliberate change, run its
command from BASELINES (from the repository root) and copy the output over.

usage: baseline_test.py BUILD_DIR SOURCE_DIR
"""

import json
import os
import subprocess
import sys

# Fields that depend on the host or the worker count, not the simulation.
WALL_CLOCK = ('wall_clock_us', 'replay_ops_per_sec', 'threads', 'iops', 'mean_response_us')

# (baseline file, comparison, commands that append to one output file).
BASELINES = [
    ('envelope_smoke_baseline.json', 'bytes',
     [['bench/bench_device_envelope', '--ops=20000']]),
    ('aging_smoke_baseline.json', 'bytes',
     [['bench/bench_aging', '--scale=0.02', '--workload=homes', '--aging=2'],
      ['bench/bench_aging', '--scale=0.02', '--workload=usr', '--aging=2']]),
    ('aging_deep_baseline.json', 'bytes',
     [['tools/flashcheck', '--aging=60', '--faults', '--fault-seed=1', '--shards=4']]),
    ('admission_smoke_baseline.json', 'dicts',
     [['bench/bench_ablation_admission', '--scale=0.02', '--workload=homes'],
      ['bench/bench_ablation_admission', '--scale=0.02', '--workload=usr']]),
    ('kv_smoke_baseline.json', 'dicts',
     [['bench/bench_ablation_kv', '--scale=0.2']]),
]


def strip(line):
    row = json.loads(line)
    return {k: v for k, v in row.items() if k not in WALL_CLOCK}


def first_difference(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f'row {i + 1}:\n  got  {g}\n  want {w}'
    return f'row count {len(got)} != {len(want)}'


def check(build_dir, source_dir, out_dir, name, mode, commands):
    out = os.path.join(out_dir, name)
    if os.path.exists(out):
        os.remove(out)  # every tool appends one line per run
    for command in commands:
        argv = [os.path.join(build_dir, command[0])] + command[1:] + ['--stats-json=' + out]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        got = f.read()
    with open(os.path.join(source_dir, 'tests', 'baselines', name)) as f:
        want = f.read()
    if mode == 'bytes':
        same = got == want
        detail = '' if same else first_difference(got.splitlines(), want.splitlines())
    else:
        got_rows = [strip(line) for line in got.splitlines()]
        want_rows = [strip(line) for line in want.splitlines()]
        same = got_rows == want_rows
        detail = '' if same else first_difference(got_rows, want_rows)
    if same:
        print(f'{name}: {len(want.splitlines())} rows match ({mode})')
        return True
    print(f'{name}: DRIFT ({mode}) vs. committed baseline; {detail}')
    print('  commands: ' + ' ; '.join(' '.join(c) for c in commands))
    return False


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    build_dir, source_dir = sys.argv[1], sys.argv[2]
    out_dir = os.path.join(build_dir, 'baseline_test')
    os.makedirs(out_dir, exist_ok=True)
    results = [check(build_dir, source_dir, out_dir, *entry) for entry in BASELINES]
    return 0 if all(results) else 1


if __name__ == '__main__':
    sys.exit(main())
