"""Mutation ledger: named wiring errors that the fast tests must catch.

    python tests/mutants.py

Each mutant is an exact (file, old text, new text) replacement in this
checkout's `src/`. The script makes one copy of `src/`, `tests/`,
`perfbench/` and `pyproject.toml` per usable core (test_api.py imports
perfbench's tracer, so without it every run would fail for that reason
alone) and runs `pytest -x` over every test outside test_acceptance.py,
with one BLAS thread: first on an unmutated copy, which must pass, then
once per mutant, each on whichever copy is free. It prints one `killed`
or `SURVIVED` line per mutant, in the order of MUTANTS. It exits nonzero
when a mutant's old text does not appear exactly once in its file, when
the unmutated copy fails, or when any mutant survives. So a refactor that
rewrites a mutated line must update the list here rather than silently
drop the check; test_api.py checks the texts in the fast tests, and the
mutant runs deselect that test, since every mutant would fail it. pytest
does not collect this file.
"""

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--ignore=tests/test_acceptance.py", "--deselect=tests/test_api.py::test_every_mutant_text_is_in_its_file"]
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_TIMEOUT_S = 900

# (name, file under src/lifedrop, old text, new text)
MUTANTS = (
    ("reactivation keyed on generation + 1", "harness.py",
     'derive_seed(reg.seed, "reactivate", epoch - 1)', 'derive_seed(reg.seed, "reactivate", epoch)'),
    ("in-place epoch restored with orders, not their inverse", "harness.py",
     "_reorder_units(network, [np.argsort(order) for order in orders])", "_reorder_units(network, orders)"),
    ("alpha offset built with keep for ~keep", "regularizers.py",
     "b + (a * ALPHA_PRIME) * ~keep", "b + (a * ALPHA_PRIME) * keep"),
    ("evaluation chunk of 1,024 rows", "harness.py", "_CHUNK = 128", "_CHUNK = 1024"),
    ("the helper's error is swallowed", "harness.py", '        if "error" in outcome:', "        if False:"),
    ("the helper runs outside the caller's context", "harness.py",
     "threading.Thread(target=contextvars.copy_context().run, args=(call,))", "threading.Thread(target=call)"),
    ("both evaluation threads take the even chunks", "harness.py", "_started(take, 1)", "_started(take, 0)"),
    ("the caller's error no longer joins the helper", "harness.py",
     "                join()  # no helper outlives run", "                pass"),
    ("the helper keys the batch it prepares on the batch already training", "harness.py",
     "enumerate(batches(train_ds, config.batch_size, shuffle_seed))",
     "enumerate(batches(train_ds, config.batch_size, shuffle_seed), -1)"),
    ("reactivate writes into its input", "lattice.py", "out = cells.copy()", "out = cells"),
    ("divergence check always passes", "harness.py",
     "finite = np.isfinite([train_loss, val_loss]).all()", "finite = True"),
    ("births at three or more neighbours", "lattice.py", "born = ~alive & (neighbors == 3)",
     "born = ~alive & (neighbors >= 3)"),
    ("SGD climbs the gradient", "nn.py", "weights -= dw", "weights += dw"),
    ("batches are never shuffled", "data.py",
     "order = np.random.default_rng(seed).permutation(dataset.n)", "order = np.arange(dataset.n)"),
    ("shuffle keyed on the next epoch", "harness.py",
     'derive_seed(batch_seed, "shuffle", epoch)', 'derive_seed(batch_seed, "shuffle", epoch + 1)'),
    ("ReLU backward mask at >= 0", "nn.py", "dz *= activations[l] > 0", "dz *= activations[l] >= 0"),
    ("validation width and class check turned off", "harness.py",
     "if (val_ds.features.shape[1], val_ds.class_count) != (width, classes):", "if False:"),
    ("noise keyed on the next batch", "harness.py",
     'derive_seed(reg.seed, "noise", epoch, batch_i)', 'derive_seed(reg.seed, "noise", epoch, batch_i + 1)'),
    ("a second data source accepted beside the first", "harness.py",
     "(config.blobs is not None) != 1:", "(config.blobs is not None) == 0:"),
    ("a malformed metrics cell raises without its file and line", "harness.py",
     'raise ValueError(f"{path}:{lineno}: {exc}") from None', "raise"),
    ("a zero-epoch run writes its manifest without loading its data", "harness.py",
     "    train_ds, val_ds = _load_data(config, data)",
     "    if config.epochs == 0:\n"
     "        Path(config.output_dir).mkdir(parents=True, exist_ok=True)\n"
     "        write_manifest(config, Path(config.output_dir) / \"manifest.txt\")\n"
     "        return []\n"
     "    train_ds, val_ds = _load_data(config, data)"),
    ("a bare regularizer manifest line taken as the nested config", "harness.py",
     "regularizer = RegularizerConfig(**_pop_fields(",
     'regularizer = entries.pop("regularizer") if "regularizer" in entries else RegularizerConfig(**_pop_fields('),
    ("the CLI reports only OSError as an error line", "cli.py",
     "except (ValueError, OSError) as exc:", "except OSError as exc:"),
    ("a regularizer of another type accepted when built", "harness.py",
     "if not isinstance(self.regularizer, RegularizerConfig):", "if False:"),
    ("blobs of another type accepted when built", "harness.py",
     "if self.blobs is not None and not isinstance(self.blobs, BlobSpec):", "if False:"),
    ("a float integer setting truncated to an integer", "data.py",
     'int: (numbers.Integral, "an integer", int)', 'int: (numbers.Real, "an integer", int)'),
    ("the real-number check turned off", "data.py",
     'float: (numbers.Real, "a real number", float)', 'float: (object, "a real number", float)'),
    ("a setting's checked value not stored as its Python type", "data.py",
     "    return store(value)", "    return value"),
    ("batch_size annotated float, so a float batch size is accepted", "harness.py",
     "    batch_size: int = 512", "    batch_size: float = 512"),
    ("a loss equal to best - min_delta counted as an improvement", "regularizers.py",
     "val_loss < best - config.min_delta", "val_loss <= best - config.min_delta"),
    ("the stall count kept when the monitor fires", "regularizers.py",
     "    if triggered:\n        stalls = 0\n", "    if triggered:\n"),
    ("a patience below 1 accepted when built", "harness.py", "if self.patience < 1:", "if False:"),
    ("a negative or non-finite min_delta accepted when built", "harness.py",
     "if not 0 <= self.min_delta < np.inf:", "if False:"),
    ("a float patience accepted when built", "harness.py", "    patience: int = 5", "    patience: float = 5"),
    ("a float run seed accepted when built", "harness.py",
     "    learning_rate: float = 0.01\n    seed: int = 0", "    learning_rate: float = 0.01\n    seed: float = 0"),
    ("a float snapshot epoch accepted when built", "harness.py",
     "    snapshot_epochs: tuple[int, ...] = (1, 10, 20)", "    snapshot_epochs: tuple = (1, 10, 20)"),
    ("float architecture widths truncated to integers", "harness.py",
     '_plain("architecture widths", tuple[int, ...], arch)', "tuple(int(w) for w in arch)"),
    ("a float regularizer seed accepted when built", "harness.py",
     "    reactivation_fraction: float = 0.1\n    seed: int = 0", "    reactivation_fraction: float = 0.1\n    seed: float = 0"),
    ("a float blob count accepted when built", "harness.py", "    per_class: int = 500", "    per_class: float = 500"),
    ("Dataset skips the value rule", "data.py",
     "        _store_plain(self)\n        features = np.asarray(self.features)\n",
     "        features = np.asarray(self.features)\n"),
    ("a bool accepted as a number", "data.py",
     "if isinstance(value, bool) or not isinstance(value, accepted):", "if not isinstance(value, accepted):"),
    ("the path rule turned off", "data.py",
     'str: (str, "a string", str), str | Path: _PATH, str | Path | None: _PATH}', 'str: (str, "a string", str)}'),
    ("the integer-tuple rule accepting a float item", "data.py",
     "return tuple(_plain(name, int, v) for v in value)", "return tuple(int(v) for v in value)"),
    ("string annotations hide Dataset's types", "data.py",
     "import contextlib\n", "from __future__ import annotations\nimport contextlib\n"),
    ("string annotations hide every field's type from the value rule", "harness.py",
     "import ast\n", "from __future__ import annotations\nimport ast\n"),
    ("a dataset with no feature columns accepted", "data.py", "if features.shape[1] == 0:", "if False:"),
    ("a leading ~ in output_dir written literally", "harness.py",
     "out = Path(config.output_dir).expanduser()", "out = Path(config.output_dir)"),
)


def unmatched() -> list[str]:
    """One line per mutant whose old text is not in its file exactly once."""
    problems = []
    for name, file, old, _ in MUTANTS:
        count = (ROOT / "src" / "lifedrop" / file).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: {file} holds its old text {count} times, not once: {old!r}")
    return problems


def passes(copy: Path) -> bool:
    """Whether pytest -x passes every test outside test_acceptance.py in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", **ONE_THREAD)
    result = subprocess.run([*PYTEST, f"--basetemp={copy / 'pytest-tmp'}"], cwd=copy, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    return result.returncode == 0


def copy_tree(copy: Path) -> Path:
    """`copy` made to hold what the tests need of this checkout."""
    copy.mkdir()
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        else:
            shutil.copy2(source, copy / name)
    return copy


def killed(copies: queue.Queue, mutant) -> bool:
    """Whether the tests fail on a free copy with `mutant` applied; the copy is restored and freed after."""
    _, file, old, new = mutant
    copy = copies.get()
    path = copy / "src" / "lifedrop" / file
    original = path.read_text()
    path.write_text(original.replace(old, new))
    try:
        return not passes(copy)
    finally:
        path.write_text(original)
        copies.put(copy)


def main() -> int:
    problems = unmatched()
    for line in problems:
        print(f"error: {line}")
    if problems:
        return 2
    started = time.perf_counter()
    workers = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = queue.Queue()
        for i in range(workers):
            copies.put(copy_tree(Path(tmp) / f"tree-{i}"))
        if not passes(Path(tmp) / "tree-0"):
            print("error: the unmutated copy fails its tests, so no mutant can be judged")
            return 2
        print("unmutated: passes", flush=True)
        survivors = 0
        with ThreadPoolExecutor(workers) as pool:
            for (name, file, _, _), dead in zip(MUTANTS, pool.map(lambda m: killed(copies, m), MUTANTS)):
                survivors += not dead
                print(f"{'killed' if dead else 'SURVIVED'}: {name} ({file})", flush=True)
    print(f"mutants: {len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.perf_counter() - started:.0f} s"
          f" on {workers} workers", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
