"""Every field of a configuration dataclass is read by the program.

A field that nothing reads is a setting that does nothing: a caller can
set it and validation can check it, yet no behaviour changes. This test
parses every module under ``src/repro`` and requires each field of the
classes below to be loaded as an attribute (``obj.field``) somewhere
outside its own class body.
"""

import ast
from pathlib import Path

import repro

CONFIG_CLASSES = frozenset({
    "LatencyProfile", "CacheConfig", "FilesystemConfig", "PlatformConfig",
    "EngineConfig", "ServerConfig", "GroupCommitConfig", "ChaosConfig",
    "FaultConfig", "ClosedLoopConfig", "ExperimentSpec", "TPCCConfig",
    "YCSBConfig", "HTAPConfig",
})


def _trees():
    root = Path(repro.__file__).parent
    return [ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(root.rglob("*.py"))]


def _fields(cls: ast.ClassDef):
    return [stmt.target.id for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)]


def test_every_config_field_is_read_outside_its_class():
    classes = {}
    loads = {}                  # attribute name -> ids of its load nodes
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) \
                    and node.name in CONFIG_CLASSES:
                classes[node.name] = node
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, set()).add(id(node))
    assert set(classes) == CONFIG_CLASSES
    unread = []
    for name, cls in sorted(classes.items()):
        inside = {id(node) for node in ast.walk(cls)}
        unread += [f"{name}.{field}" for field in _fields(cls)
                   if not loads.get(field, set()) - inside]
    assert not unread, f"config fields nothing reads: {unread}"
