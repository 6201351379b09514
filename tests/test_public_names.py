"""Every name the package exports is reached by its own code or named here.

A name in ``definetti.__all__`` is reached when a module of the package
other than ``__init__`` loads it, as a name or an attribute.  Loads inside
the definition of an exported name that is itself unreached do not count,
so a helper that only dead code uses is dead too.  The names that only the
benchmark or the tests reach are listed with their reasons.
"""

import ast
import pathlib

import definetti

ALLOWED = {
    "ratio_scan": "perfbench wraps it as the harness.ratio_scan span",
    "conditional_prefix_prob": "the exact P(prefix | count = i) that the tests sum by hand",
    "iid_kernel": "the exact kernel (i/N)^alpha (1-i/N)^(k-alpha) that the tests sum by hand",
}


def _loads(node):
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def test_public_names_are_reached():
    package = pathlib.Path(definetti.__file__).parent
    public = set(definetti.__all__)
    # (defined name or None, names loaded) per top-level statement
    statements = [
        (getattr(stmt, "name", None), _loads(stmt))
        for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text()).body
    ]
    unreached = set()
    while True:
        loaded = set().union(*(names for owner, names in statements if owner not in unreached))
        grown = public - loaded - set(ALLOWED)
        if grown == unreached:
            break
        unreached = grown
    assert not unreached, f"exported but reached by nothing: {sorted(unreached)}"
    assert set(ALLOWED) <= public
    assert not set(ALLOWED) & loaded, "an allowed name is reached now; drop it from ALLOWED"
