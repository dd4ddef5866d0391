"""The package's export list: what ``from ncelm import *`` provides, and
the names the demos import from it."""

import ast
import importlib
from pathlib import Path

import ncelm

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_star_import_resolves_every_exported_name():
    names = ncelm.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from ncelm import *", namespace)
    for name in names:
        assert name in namespace
        assert namespace[name] is getattr(ncelm, name)
    # The per-record batch types are gone; CellCounts is the batch type.
    assert "CellCounts" in names
    for gone in ("ProxyBatch", "ProxyExample"):
        assert not hasattr(ncelm, gone)
    # A noise distribution is its probability array; NceConfig checks it.
    assert not hasattr(ncelm, "NoiseDistribution")
    # A corpus is its pair count grid, from pair_count_matrix, and a softmax
    # row is exp of log_softmax_matrix's.
    assert "pair_count_matrix" in names
    for gone in ("CorpusStats", "stats_from_pairs"):
        assert not hasattr(ncelm, gone)
        assert not hasattr(ncelm.corpus, gone)
    assert not hasattr(ncelm.model, "softmax_from_scores")


def test_demo_imports_resolve():
    # The demos are not run by the tests; a removed public name must still
    # fail here rather than in the demo that imports it.
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ncelm":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name}"
