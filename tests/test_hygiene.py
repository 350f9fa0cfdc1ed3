"""Source hygiene: imports, packaging and the names the docs refer to.

* No module under ``src/repro`` imports a name it never uses.  An
  ``ast``-only scan, so it needs no lint package.  A module-level import
  counts as used when its bound name appears as a name anywhere in the
  module (annotations included, also when written as strings) or is listed
  in ``__all__``.  A line marked ``# noqa`` is skipped: use it for an import
  kept for its side effect or as a deliberate re-export.
* Every package imports only packages on a lower layer, in the order the
  marked block of ``docs/architecture.md`` states once, and importing it
  first in a fresh interpreter loads no package above it.  CI runs that
  check for every package (``python tests/test_hygiene.py <package>``);
  the suite runs it for ``repro.obs``, the bottom of the serving stack.
* ``find_packages`` ships every source directory.
* Every dotted ``repro.…`` name in the sources, docs and examples resolves.
"""
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / 'src' / 'repro'


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


# -- layers -------------------------------------------------------------------

def layer_order() -> dict:
    """package -> layer index, from the marked block in docs/architecture.md."""
    text = (REPO / 'docs' / 'architecture.md').read_text()
    block = text.split('<!-- layer-order -->')[1].split('<!-- /layer-order -->')[0]
    body = block.replace('```text', '').replace('```', '')
    return {package.strip(): level
            for level, layer in enumerate(body.split('<'))
            for package in layer.split(',')}


def imported_modules(path: pathlib.Path, node) -> list:
    """Absolute names of the modules (or module attributes) an import reads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    package = path.relative_to(SRC.parent).parent.parts
    base = '.'.join(package[:len(package) - node.level + 1])
    if node.module:
        return [f'{base}.{node.module}']
    return [f'{base}.{alias.name}' for alias in node.names]


def layer_violations(order: dict) -> list:
    """``file:line: ...`` for each cross-package import that is not downward.

    Function-level imports count too.  The root ``repro/__init__.py`` and
    the ``__main__.py`` command-line entry points sit above every layer.
    """
    found = []
    for path in sorted(SRC.rglob('*.py')):
        rel = path.relative_to(SRC)
        if len(rel.parts) == 1 or path.name == '__main__.py':
            continue
        package = rel.parts[0]
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for module in imported_modules(path, node):
                parts = module.split('.')
                if parts[0] != 'repro' or parts[1:2] == [package]:
                    continue
                target = parts[1] if len(parts) > 1 else 'repro'
                if order.get(target, len(order)) >= order[package]:
                    found.append(f'repro/{rel.as_posix()}:{node.lineno}: '
                                 f'{package} imports {target} ({module}), '
                                 f'which is not on a lower layer')
    return found


#: packages the root ``repro/__init__.py`` loads for its re-export of
#: ``repro.ir.taskmap``; any ``import repro.<package>`` loads them first
ROOT_EXPORTS = {'ir'}


def loaded_above(package: str, order: dict) -> list:
    """The loaded ``repro`` packages on a layer above ``package``.

    Meant to run right after ``import repro.<package>`` in a fresh
    interpreter, as ``python tests/test_hygiene.py <package>`` does.
    """
    loaded = {name.split('.')[1] for name in sys.modules
              if name.startswith('repro.')}
    return sorted(name for name in loaded - ROOT_EXPORTS
                  if order.get(name, len(order)) > order[package])


def import_first(package: str) -> subprocess.CompletedProcess:
    """Run ``python tests/test_hygiene.py <package>`` over the checkout's
    sources."""
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get('PYTHONPATH')]))
    return subprocess.run([sys.executable, __file__, package],
                          capture_output=True, text=True,
                          env={**os.environ, 'PYTHONPATH': path})


def test_obs_imports_without_the_layers_above():
    proc = import_first('obs')
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = proc.stdout.split()
    assert loaded and not [name for name in loaded
                           if name.split('.')[1] in ('runtime', 'graph',
                                                     'serve')]


def test_layer_order_names_every_package():
    packages = sorted(p.name for p in SRC.iterdir()
                      if (p / '__init__.py').is_file())
    assert sorted(layer_order()) == packages


def test_imports_follow_the_layer_order():
    found = layer_violations(layer_order())
    assert not found, 'upward or sideways imports:\n' + '\n'.join(found)


# -- packaging ----------------------------------------------------------------

def test_find_packages_ships_every_source_directory():
    from setuptools import find_packages
    shipped = set(find_packages(where=str(SRC.parent)))
    sources = {'.'.join(path.parent.relative_to(SRC.parent).parts)
               for path in SRC.rglob('*.py')}
    assert sorted(sources - shipped) == []


# -- doc references -----------------------------------------------------------

#: a dotted ``repro.`` name not inside a path or a longer dotted name
REFERENCE = re.compile(r'(?<![\w./-])repro(?:\.\w+)+')

DOCUMENTED = (sorted(SRC.rglob('*.py')) + sorted((REPO / 'docs').glob('*.md'))
              + [REPO / 'README.md']
              + sorted(p for p in (REPO / 'examples').iterdir() if p.is_file()))


def resolves(name: str) -> bool:
    """Whether ``name`` is a module or attribute by import plus getattr."""
    parts = name.split('.')
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module('.'.join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_doc_references_resolve():
    references: dict = {}
    for path in DOCUMENTED:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for match in REFERENCE.finditer(line):
                references.setdefault(match.group(0),
                                      f'{path.relative_to(REPO)}:{lineno}')
    stale = [f'{where}: {name}' for name, where in sorted(references.items())
             if not resolves(name)]
    assert references
    assert not stale, 'unresolved references:\n' + '\n'.join(stale)


if __name__ == '__main__':
    # import one package first, print every repro module that loaded, and
    # fail if a package above it in the layer order is among them
    importlib.import_module(f'repro.{sys.argv[1]}')
    print(' '.join(sorted(name for name in sys.modules
                          if name.startswith('repro.'))))
    above = loaded_above(sys.argv[1], layer_order())
    if above:
        sys.exit(f'import repro.{sys.argv[1]} loaded packages above it '
                 f'in docs/architecture.md: {", ".join(above)}')
