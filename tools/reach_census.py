#!/usr/bin/env python3
"""Function-level reachability census of ``src/repro``.

    python3 tools/reach_census.py

Runs every product entry point (:func:`entry_points`: each CLI
subcommand at its defaults as tables and as ``--json``, the invocations
CI runs, the four ``bench/run.py`` workloads at smoke scale, the figure
benches and every example) with a ``sitecustomize`` hook that records
each code object of ``src/repro`` that starts executing, in every Python
process those commands start.  A recorded code object is matched to its
``def`` by ``(file, co_firstlineno)``; for a decorated function that is
the line of its first decorator.

Tests are not an entry point: a function only a test calls is unreached.
An unreached function stays only with a reason: a row of :data:`KEEP`,
or a name some file under ``bench/`` uses (the benchmark is frozen, and
it reaches the program by name).  Prints the reached / unreached / kept
counts and every unreached function without a reason, and exits 1 when
there is one.  Two entry points run at a time (:data:`JOBS`).
Standard library only.
"""

from __future__ import annotations

import ast
import concurrent.futures
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SOURCE, "repro")
#: entry points run at once; each is one process of at most a few
#: hundred MB
JOBS = 2

#: The hook every process imports at start-up.  It records
#: ``(file, first line)`` of every code object under ``src/`` that starts
#: and appends them to a file of its own when the process ends, including
#: through ``os._exit`` (``bench/run.py --child`` leaves that way, past
#: ``atexit``).
HOOK = r'''
import os
import sys

_OUT = os.environ.get("REACH_CENSUS_OUT")
if _OUT:
    import atexit
    import tempfile

    _SOURCE = os.environ["REACH_CENSUS_SOURCE"]

    if hasattr(sys, "monitoring"):
        _seen = set()
        _monitor = sys.monitoring

        def _start(code, _offset):
            if code.co_filename.startswith(_SOURCE):
                _seen.add((code.co_filename, code.co_firstlineno))
            return _monitor.DISABLE

        _monitor.use_tool_id(_monitor.COVERAGE_ID, "reach_census")
        _monitor.register_callback(
            _monitor.COVERAGE_ID, _monitor.events.PY_START, _start
        )
        _monitor.set_events(_monitor.COVERAGE_ID, _monitor.events.PY_START)

        def _reached():
            return _seen
    else:
        import cProfile

        _profile = cProfile.Profile()
        _profile.enable()

        def _reached():
            _profile.disable()
            return {
                (entry.code.co_filename, entry.code.co_firstlineno)
                for entry in _profile.getstats()
                if not isinstance(entry.code, str)
                and entry.code.co_filename.startswith(_SOURCE)
            }

    def _dump():
        handle, _path = tempfile.mkstemp(dir=_OUT, suffix=".reached")
        with os.fdopen(handle, "w") as out:
            for filename, line in sorted(_reached()):
                out.write(f"{filename}\t{line}\n")

    _exit = os._exit

    def _exit_after_dump(status):
        _dump()
        _exit(status)

    os._exit = _exit_after_dump
    atexit.register(_dump)
'''

#: Unreached functions that stay, each with its reason.  A row names a
#: function or a class by module path and qualified name, and covers
#: every function defined inside it.
KEEP: Dict[str, str] = {
    # declarations and conformance
    "repro.mint.node.Engine": (
        "the storage-engine protocol: declarations, never executed"
    ),
    "repro.lsm.engine.LSMEngine.exists": (
        "LSM baseline's conformance to the Engine protocol"
    ),
    "repro.lsm.engine.LSMEngine.peek": (
        "LSM baseline's conformance to the Engine protocol"
    ),
    "repro.lsm.engine.LSMEngine.restore": (
        "LSM baseline's conformance to the Engine protocol (repair on an "
        "LSM node lands a withdrawn record)"
    ),
    "repro.lsm.engine.LSMEngine.restart": (
        "LSM baseline's conformance to the Engine protocol (a crashed LSM "
        "node)"
    ),
    # references the tests compare against
    "repro.qindb.memtable.Memtable.drop": (
        "drops one item outside a collection: the per-record GC reference "
        "test_gc_equivalence collects with, and the memtable's unit and "
        "property tests; a collection's drops are made by survivors"
    ),
    "repro.simulation.kernel.Simulator.peek": (
        "the one-event-at-a-time reference loop test_sim_run_equivalence "
        "checks run() against"
    ),
    "repro.simulation.kernel.Simulator._pop_next": (
        "the one-event-at-a-time reference loop test_sim_run_equivalence "
        "checks run() against"
    ),
    "repro.simulation.kernel.Simulator.step": (
        "the one-event-at-a-time reference loop test_sim_run_equivalence "
        "checks run() against"
    ),
    "repro.core.metrics.PercentileTracker": (
        "the exact percentile reference LogHistogram is checked against"
    ),
    "repro.workloads.chaos.run_plain_cycles": (
        "the unfaulted twin test_chaos compares a no-op plan against"
    ),
    "repro.qindb.gctable.GCTable.snapshot": (
        "the whole-table read-out the GC and batch equivalence tests "
        "compare two engines by"
    ),
    # error and guard paths
    "repro.simulation.events.Event.fail": (
        "error path: an event that carries an exception to its waiters"
    ),
    "repro.simulation.events.Timeout.succeed": (
        "guard: a Timeout triggers itself"
    ),
    "repro.simulation.events.Timeout.fail": "guard: a Timeout triggers itself",
    "repro.bifrost.dedup.Deduplicator.forget": (
        "error path: a failed train forgets the dead version's signatures"
    ),
    "repro.bifrost.encoding.WireEncoder.forget": (
        "error path: a failed train forgets the dead version's delta bases"
    ),
    "repro.qindb.aof.AofSegment._foreign": (
        "guard: a location from another segment is a typed error"
    ),
    "repro.obs.tracer._NullAttrs.setdefault": (
        "error path: a span closed by an exception records it; the null "
        "span drops it"
    ),
    # paths only a user's plan or configuration reaches
    "repro.faults.injector.FaultInjector._run_link_degrade": (
        "fault grammar: the degrade verb, reached by a user plan"
    ),
    "repro.bifrost.channels.Topology.degrade_link": (
        "fault grammar: the degrade verb, reached by a user plan"
    ),
    "repro.simulation.pipes.Link.degrade": (
        "fault grammar: the degrade verb, reached by a user plan"
    ),
    "repro.qindb.checkpoint.Checkpoint.discard": (
        "periodic checkpoints (checkpoint_interval_bytes) replace the "
        "previous one"
    ),
    "repro.qindb.aof._FileUnit.discard_unprogrammed": (
        "a crash of an engine on the filesystem backend (the A2 arm)"
    ),
    "repro.ssd.native.NativeUnit.corrupt": (
        "media damage: the one way stored bytes are damaged; the tests' "
        "bit flips use it, and an at-rest bitrot fault will"
    ),
    "repro.qindb.engine.QinDB._traceback": (
        "scan's path for a deduplicated row in the scanned range"
    ),
    "repro.core.version.VersionManager.rollback": (
        "the paper's last-resort rollback (section 1.1.2)"
    ),
    # repair, parked slices and cache coherence
    "repro.faults.repair.ReplicaRepairer._sweep_slice": (
        "audit: full leaf sweep of a slice whose sample diverged; counts "
        "each divergent copy and re-lands only those the node lacks, "
        "through read_copy with the expected leaf and land_copy"
    ),
    "repro.mint.cluster.MintCluster._drain_parked": (
        "parked wire slices retried when a base arrives"
    ),
    "repro.qindb.readcache.RecordCache.invalidate_segment": (
        "keeps the read cache coherent when GC erases a segment"
    ),
    # fleet verbs (ROADMAP 3(b))
    "repro.elastic.migrator.Migrator.merge_group": (
        "elastic merge, a fleet verb of ROADMAP 3(b)"
    ),
    "repro.elastic.migrator.Migrator._merge": (
        "elastic merge, a fleet verb of ROADMAP 3(b)"
    ),
    "repro.mint.cluster.MintCluster.remove_group": (
        "elastic leave, a fleet verb of ROADMAP 3(b)"
    ),
}


def entry_points(out_dir: str) -> List[List[str]]:
    """Every command the census runs, as argv lists (``python`` first)."""
    sys.path.insert(0, SOURCE)
    from repro.cli import COMMANDS
    from repro.faults.plan import NAMED_PLANS

    python = sys.executable
    repro = [python, "-m", "repro"]
    commands: List[List[str]] = []
    for name in COMMANDS:
        commands.append(repro + [name])
        commands.append(repro + [name, "--json"])
    # the invocations CI runs beyond the defaults
    for plan in NAMED_PLANS:
        commands.append(repro + ["chaos", "--plan", plan, "--json"])
        commands.append(repro + ["chaos", "--plan", plan, "--wire", "--json"])
    commands += [
        repro + [
            "health", "--plan", "single-node-crash", "--cycles", "2",
            "--json", "--flamegraph",
            "--out", os.path.join(out_dir, "health.json"),
            "--trace-out", os.path.join(out_dir, "health-trace.json"),
        ],
        repro + [
            "observe", "--json",
            "--trace-out", os.path.join(out_dir, "trace.json"),
        ],
        repro + ["rebalance", "--crash", "--json"],
        repro + ["serve", "--plan", "single-node-crash", "--json"],
        repro + ["month", "--days", "3", "--pipelined", "--json"],
        repro + ["bandwidth", "--days", "2", "--json"],
    ]
    bench = os.path.join(ROOT, "bench", "run.py")
    for workload in ("fleet_ingest", "retention_month", "serve_static",
                     "serve_churn"):
        for trace in ("0", "1"):
            commands.append([
                python, bench, "--workload", workload, "--scale", "smoke",
                "--trace", trace,
            ])
    commands.append([
        python, "-m", "pytest", os.path.join(ROOT, "benchmarks"), "-q",
        "--benchmark-disable", "-p", "no:cacheprovider",
    ])
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            commands.append([python, os.path.join(examples, name)])
    return commands


def run_entry_points() -> Set[Tuple[str, int]]:
    """Run every entry point under the hook; the ``(file, line)`` pairs
    of the code objects any of their processes started."""
    with tempfile.TemporaryDirectory(prefix="reach-census-") as scratch:
        hook_dir = os.path.join(scratch, "hook")
        out_dir = os.path.join(scratch, "reached")
        work_dir = os.path.join(scratch, "work")
        for path in (hook_dir, out_dir, work_dir):
            os.mkdir(path)
        with open(os.path.join(hook_dir, "sitecustomize.py"), "w") as out:
            out.write(HOOK)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([hook_dir, SOURCE])
        env["REACH_CENSUS_OUT"] = out_dir
        env["REACH_CENSUS_SOURCE"] = PACKAGE + os.sep

        def run(command: List[str]) -> Tuple[List[str], int, float, str]:
            began = time.monotonic()
            done = subprocess.run(
                command, cwd=work_dir, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, check=False,
            )
            return command, done.returncode, time.monotonic() - began, (
                done.stderr
            )

        failed = []
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            for command, code, seconds, stderr in pool.map(
                run, entry_points(work_dir)
            ):
                shown = " ".join(
                    os.path.relpath(part, ROOT) if os.path.isabs(part)
                    else part for part in command[1:]
                )
                print(f"  [{code}] {seconds:6.1f} s  {shown}", flush=True)
                if code != 0:
                    failed.append((shown, stderr))
        for shown, stderr in failed:
            print(f"reach_census: {shown} failed:\n{stderr}", file=sys.stderr)
        if failed:
            sys.exit(2)
        reached: Set[Tuple[str, int]] = set()
        for name in os.listdir(out_dir):
            with open(os.path.join(out_dir, name)) as handle:
                for row in handle:
                    filename, line = row.rstrip("\n").split("\t")
                    reached.add((filename, int(line)))
        return reached


class Function(NamedTuple):
    name: str      # module path and qualified name
    filename: str
    line: int      # first decorator's line, else the ``def`` line
    lines: int     # source lines from ``line`` to the end of the body


def functions() -> Iterator[Function]:
    """Every ``def`` under ``src/repro``, nested ones included."""
    for directory, _subdirs, names in os.walk(PACKAGE):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            filename = os.path.join(directory, name)
            module = os.path.relpath(filename, SOURCE)[:-3].replace(
                os.sep, "."
            ).removesuffix(".__init__")
            with open(filename) as handle:
                tree = ast.parse(handle.read(), filename)
            yield from _defs(tree, module, filename)


def _defs(node: ast.AST, prefix: str, filename: str) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = min(
                [child.lineno] + [d.lineno for d in child.decorator_list]
            )
            name = f"{prefix}.{child.name}"
            yield Function(name, filename, line, child.end_lineno - line + 1)
            yield from _defs(child, name, filename)
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, f"{prefix}.{child.name}", filename)
        else:
            yield from _defs(child, prefix, filename)


def bench_names() -> Set[str]:
    """Every identifier a file under ``bench/`` uses: names, attributes,
    imported names and identifier-like strings (``bench/trace.py``
    patches methods by name)."""
    names: Set[str] = set()
    for directory, _subdirs, files in os.walk(os.path.join(ROOT, "bench")):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(directory, name)) as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    names.add(node.value)
    return names


def short(name: str) -> str:
    """The bare name a ``bench/`` file would use; dunders (``__init__``)
    name no particular function, so they never count."""
    bare = name.rsplit(".", 1)[-1]
    return "" if bare.startswith("__") else bare


def kept_by(name: str) -> str:
    """The :data:`KEEP` row covering ``name``, or ``""``."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        row = ".".join(parts[:end])
        if row in KEEP:
            return row
    return ""


def main() -> int:
    defined = list(functions())
    names = {function.name for function in defined}
    unknown = sorted(
        row for row in KEEP
        if row not in names
        and not any(name.startswith(row + ".") for name in names)
    )
    if unknown:
        print("reach_census: keep rows name no function: "
              + ", ".join(unknown), file=sys.stderr)
        return 1
    reached = run_entry_points()
    bench = bench_names()
    kept: List[Tuple[Function, str]] = []
    missing: List[Function] = []
    unreached = [
        function for function in defined
        if (function.filename, function.line) not in reached
    ]
    for function in unreached:
        row = kept_by(function.name)
        if row:
            kept.append((function, f"{KEEP[row]} [{row}]"))
        elif short(function.name) in bench:
            kept.append((function, "named in bench/ (frozen)"))
        else:
            missing.append(function)
    print(
        f"{len(defined)} functions in src/repro: "
        f"{len(defined) - len(unreached)} reached, {len(unreached)} "
        f"unreached ({sum(f.lines for f in unreached)} lines); "
        f"{len(kept)} kept with a reason, {len(missing)} without"
    )
    for function, reason in kept:
        print(f"  kept  {function.name}: {reason}")
    for function in missing:
        where = os.path.relpath(function.filename, ROOT)
        print(f"  UNREACHED  {function.name}  {where}:{function.line}  "
              f"({function.lines} lines)")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
