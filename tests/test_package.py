import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import semroi

# a plain forward beside its ``_vjp``/``_recorded`` form: the public forward,
# and three that perfbench/checks.py still calls (ROADMAP item 1 deletes them)
PLAIN_FORWARDS = {"sra_extract", "roi_descriptor", "softmax_spatial", "block_average_pool"}

TWINS = {
    "linear", "layer_norm", "softmax_spatial", "block_average_pool", "project_embedding",
    "roi_descriptor", "semantic_feature_map", "mask_logits", "sample_roi_feature",
    "extract_on_grid",
}


def test_export_list_resolves_sorted_and_unique():
    names = semroi.__all__
    assert all(hasattr(semroi, name) for name in names)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_one_form_per_op():
    twins = set()
    for info in pkgutil.iter_modules(semroi.__path__):
        module = importlib.import_module(f"semroi.{info.name}")
        public = {
            name for name, fn in vars(module).items()
            if inspect.isfunction(fn) and fn.__module__ == module.__name__
            and not name.startswith("_")
        }
        twins |= {name for name in public if {f"{name}_vjp", f"{name}_recorded"} & public}
    assert twins <= PLAIN_FORWARDS
    assert not TWINS & set(semroi.__all__)
    assert len(semroi.__all__) == 40


# what ``import semroi`` may load beside its own modules, once numpy is in:
# every module it adds is compiled or loaded at each cold start
IMPORT_EXTRAS = {
    "__future__", "_blake2", "_hashlib", "_json", "copy", "dataclasses", "hashlib", "json",
    "json.decoder", "json.encoder", "json.scanner",
}


def test_import_loads_no_module_beyond_todays_set():
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import semroi\n"
        "added = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(added))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(semroi.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    added = set(json.loads(out.stdout))
    own = {name for name in added if name.split(".")[0] == "semroi"}
    assert added - own <= IMPORT_EXTRAS
    assert not {"semroi.cli", "semroi.oracles"} & own
