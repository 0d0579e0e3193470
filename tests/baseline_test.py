#!/usr/bin/env python3
"""Reruns the committed-baseline smoke commands and compares their JSON lines.

Every row in tests/baselines/ is virtual-time deterministic, so drift means a
behaviour change (or a stats-json schema change that forgot to regenerate the
baseline). Byte-compared baselines must match exactly; dict-compared ones
match after dropping the host wall-clock and thread fields, whose values vary
run to run. A 'stdout' baseline pins the whole printed table of a bench that
writes no JSON. To regenerate a baseline after a deliberate change, run its
command from BASELINES (from the repository root) and copy the output over.

The flashcheck matrix (MATRIX) is the CI's whole flashcheck surface in one
file: each `$ ARGS` row pins the exit code, every stdout line (`> `) and the
`--stats-json` line (`json `) that `tools/flashcheck ARGS` produces, and the
rows' JSON files are left in BUILD_DIR/baseline_test/ as CI artifacts. After
a deliberate change, `--regenerate-matrix` rewrites the results of the rows
the file lists (add or drop a row by editing its `$` line).

The host-cost records at the repository root (BENCH_RECORDS) are not rerun:
their wall-clock numbers are machine-dependent. Each row must carry every
field in BENCH_ROW_FIELDS so a before/after pair can be read on its own.

usage: baseline_test.py BUILD_DIR SOURCE_DIR [--regenerate-matrix]
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
    ('fig3_smoke_baseline.json', 'dicts',
     [['bench/bench_fig3_performance', '--scale=0.02']]),
    ('table4_memory_baseline.txt', 'stdout',
     [['bench/bench_table4_memory', '--scale=0.02']]),
    ('table5_wear_baseline.json', 'dicts',
     [['bench/bench_table5_wear', '--scale=0.02']]),
]

# Every flashcheck invocation the CI gates on, with its pinned results.
MATRIX = 'flashcheck_matrix_baseline.txt'

# Committed performance records (repository root) and what each row holds.
BENCH_RECORDS = ['BENCH_replay.json']
BENCH_ROW_FIELDS = ('workload', 'commit', 'command', 'seeds', 'replay_ops_per_s', 'virtual')
BENCH_QUARTILES = ('median', 'q1', 'q3')
BENCH_VIRTUAL = ('virt_iops', 'virt_p50_us', 'virt_p99_us', 'virt_p999_us', 'read_miss_pct',
                 'flash_writes_per_req', 'device_mem_bytes_per_block', 'recovery_virt_ms')


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
        argv = [os.path.join(build_dir, command[0])] + command[1:]
        if mode == 'stdout':
            with open(out, 'a') as f:
                subprocess.run(argv, check=True, stdout=f)
        else:
            subprocess.run(argv + ['--stats-json=' + out], check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        got = f.read()
    with open(os.path.join(source_dir, 'tests', 'baselines', name)) as f:
        want = f.read()
    if mode in ('bytes', 'stdout'):
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


def run_matrix(build_dir, out_dir, text):
    """Runs every `$` row of the matrix text; returns the text with fresh results."""
    def json_path(args):
        for arg in args:
            if arg.startswith('--stats-json='):
                return os.path.join(out_dir, arg.split('=', 1)[1])
        return None

    rows = [line[1:].split() for line in text.splitlines() if line.startswith('$')]
    for path in filter(None, map(json_path, rows)):
        if os.path.exists(path):
            os.remove(path)  # rows append; start every file empty
    out = []
    for line in text.splitlines():
        if not line.startswith('$'):
            if line.startswith('#') or not line.strip():
                out.append(line)  # comments and spacing are the file's own
            continue
        args = line[1:].split()
        path = json_path(args)
        argv = [os.path.join(build_dir, 'tools', 'flashcheck')] + [
            '--stats-json=' + path if a.startswith('--stats-json=') else a for a in args]
        offset = os.path.getsize(path) if path and os.path.exists(path) else 0
        run = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        out += [' '.join(['$'] + args), f'exit {run.returncode}']
        out += ['> ' + l for l in run.stdout.splitlines()]
        if path and os.path.exists(path):
            with open(path) as f:
                f.seek(offset)
                out += ['json ' + l for l in f.read().splitlines()]
    return '\n'.join(out) + '\n'


def check_matrix(build_dir, source_dir, out_dir, regenerate):
    path = os.path.join(source_dir, 'tests', 'baselines', MATRIX)
    with open(path) as f:
        want = f.read()
    got = run_matrix(build_dir, out_dir, want)
    rows = want.count('\n$')
    if regenerate:
        with open(path, 'w') as f:
            f.write(got)
        print(f'{MATRIX}: regenerated {rows} rows')
        return True
    if got == want:
        print(f'{MATRIX}: {rows} flashcheck rows match (exit code, stdout, json)')
        return True
    for g, w in zip(got.split('\n$'), want.split('\n$')):
        if g != w:
            print(f'{MATRIX}: DRIFT in row\n  got:  ' + g.replace('\n', '\n        ') +
                  '\n  want: ' + w.replace('\n', '\n        '))
            break
    else:
        print(f'{MATRIX}: DRIFT (row count differs)')
    return False


def check_bench_record(source_dir, name):
    with open(os.path.join(source_dir, name)) as f:
        rows = json.load(f)['rows']
    problems = []
    for i, row in enumerate(rows):
        missing = [k for k in BENCH_ROW_FIELDS if k not in row]
        missing += ['replay_ops_per_s.' + k for k in BENCH_QUARTILES
                    if k not in row.get('replay_ops_per_s', {})]
        missing += ['virtual.' + k for k in BENCH_VIRTUAL if k not in row.get('virtual', {})]
        if missing:
            problems.append(f'row {i + 1} ({row.get("workload", "?")}) lacks ' + ', '.join(missing))
    if not rows:
        problems.append('no rows')
    if problems:
        print(f'{name}: ' + '; '.join(problems))
        return False
    print(f'{name}: {len(rows)} rows carry every field')
    return True


def main():
    regenerate = '--regenerate-matrix' in sys.argv[1:]
    argv = [a for a in sys.argv[1:] if a != '--regenerate-matrix']
    if len(argv) != 2:
        print(__doc__)
        return 2
    build_dir, source_dir = argv
    out_dir = os.path.join(build_dir, 'baseline_test')
    os.makedirs(out_dir, exist_ok=True)
    if regenerate:
        return 0 if check_matrix(build_dir, source_dir, out_dir, True) else 1
    results = [check(build_dir, source_dir, out_dir, *entry) for entry in BASELINES]
    results.append(check_matrix(build_dir, source_dir, out_dir, False))
    results += [check_bench_record(source_dir, name) for name in BENCH_RECORDS]
    return 0 if all(results) else 1


if __name__ == '__main__':
    sys.exit(main())
