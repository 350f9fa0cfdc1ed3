"""Source hygiene: no module under ``src/repro`` imports a name it never uses.

An ``ast``-only scan, so it needs no lint package.  A module-level import
counts as used when its bound name appears as a name anywhere in the
module (annotations included, also when written as strings) or is listed
in ``__all__``.  A line marked ``# noqa`` is skipped: use it for an import
kept for its side effect or as a deliberate re-export.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / 'src' / 'repro'


def _bound_names(node):
    """``(name, line)`` for each name a module-level import binds."""
    for alias in node.names:
        if alias.name == '*':
            continue
        if isinstance(node, ast.Import) and alias.asname is None:
            yield alias.name.split('.')[0], node.lineno
        else:
            yield alias.asname or alias.name.split('.')[-1], node.lineno


def _annotation_names(tree):
    """Names inside string annotations (``-> 'Interval'``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg] if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    parsed = ast.parse(sub.value, mode='eval')
                except SyntaxError:
                    continue
                yield from (n.id for n in ast.walk(parsed)
                            if isinstance(n, ast.Name))


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == '__all__'
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            yield from (e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))


def unused_imports(path: pathlib.Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imports = [node for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and not (isinstance(node, ast.ImportFrom)
                        and node.module == '__future__')]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree)) | set(_exported(tree))
    found = []
    for node in imports:
        span = lines[node.lineno - 1:node.end_lineno]
        if any('# noqa' in line for line in span):
            continue
        found += [f'{path.relative_to(SRC.parent)}:{line}: {name}'
                  for name, line in _bound_names(node) if name not in used]
    return found


def test_no_unused_imports():
    found = [hit for path in sorted(SRC.rglob('*.py'))
             for hit in unused_imports(path)]
    assert not found, 'unused imports:\n' + '\n'.join(found)
