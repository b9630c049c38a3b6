"""Message tags of the drivers must not collide.

Every protocol defines its ``TAG_*`` constants at module level.  Two
protocols sharing a tag value can steal each other's messages as soon
as they run on one communicator, so the values are kept pairwise
distinct across all driver packages.
"""

import ast
import importlib
import inspect
import pkgutil

import repro.hier
import repro.parallel
import repro.service

PACKAGES = (repro.parallel, repro.service, repro.hier)


def defined_tags():
    """``{"module.TAG_NAME": value}`` for tags each module defines itself
    (re-imported names are skipped, so a shared constant counts once)."""
    tags = {}
    for pkg in PACKAGES:
        names = [pkg.__name__] + [
            f"{pkg.__name__}.{m.name}"
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        for name in names:
            mod = importlib.import_module(name)
            tree = ast.parse(inspect.getsource(mod))
            for node in tree.body:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for t in targets:
                    if isinstance(t, ast.Name) and t.id.startswith("TAG_"):
                        tags[f"{name}.{t.id}"] = getattr(mod, t.id)
    return tags


def test_tags_found_in_every_driver_package():
    tags = defined_tags()
    for pkg in PACKAGES:
        assert any(k.startswith(pkg.__name__ + ".") for k in tags), pkg
    assert all(isinstance(v, int) and v >= 0 for v in tags.values()), tags


def test_tags_pairwise_distinct():
    by_value: dict[int, list[str]] = {}
    for name, value in defined_tags().items():
        by_value.setdefault(value, []).append(name)
    clashes = {v: names for v, names in by_value.items() if len(names) > 1}
    assert not clashes, f"tag values used by more than one constant: {clashes}"
