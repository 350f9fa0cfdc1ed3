"""The docs tree: existence, link hygiene, and runnable doc snippets.

``docs/serving.md`` and ``docs/fleet.md`` promise that every ``python``
code block runs against the current API; this test executes each page's
blocks in order in one shared namespace, exactly as a reader following the
tutorial would.  The snippets carry their own asserts, so API drift fails
here instead of on the next reader — and a failure names the offending doc
file and snippet index (plus the snippet itself) instead of a bare assert.
"""
import os
import pathlib
import re
import shutil
import traceback

import pytest

DOCS = pathlib.Path(__file__).resolve().parent.parent / 'docs'

REQUIRED_PAGES = ('architecture.md', 'serving.md', 'cache.md', 'fleet.md',
                  'deployment.md', 'observability.md', 'tuning.md',
                  'analysis.md')

#: pages whose ``python`` blocks form an executable tutorial (run in order,
#: one shared namespace per page)
TUTORIAL_PAGES = ('serving.md', 'fleet.md', 'deployment.md',
                  'observability.md', 'tuning.md', 'analysis.md')


def python_blocks(text: str) -> list[str]:
    return re.findall(r'```python\n(.*?)```', text, re.DOTALL)


def run_page_blocks(page: str, namespace: dict) -> int:
    """Execute every python block of ``page`` in order; returns the count.

    On any exception the test fails naming the page, the zero-based snippet
    index, and the snippet source — so a doc regression reads as
    "docs/fleet.md snippet #3 raised KeyError", not as a bare assert.
    """
    blocks = python_blocks((DOCS / page).read_text())
    try:
        for i, block in enumerate(blocks):
            try:
                code = compile(block, f'docs/{page}[snippet {i}]', 'exec')
                exec(code, namespace)    # noqa: S102 - the point of the test
            except Exception:
                pytest.fail(
                    f'docs/{page} snippet #{i} failed:\n'
                    f'{traceback.format_exc()}\n'
                    f'--- snippet #{i} ---\n{block}')
    finally:
        # the tutorials mkdtemp a `workdir` for cache files; the snippets
        # stay clean of teardown noise, so the harness removes it
        workdir = namespace.get('workdir')
        if (isinstance(workdir, str)
                and os.path.basename(workdir).startswith('repro_')
                and os.path.isdir(workdir)):
            shutil.rmtree(workdir, ignore_errors=True)
    return len(blocks)


def test_docs_tree_exists():
    for page in REQUIRED_PAGES:
        path = DOCS / page
        assert path.is_file(), f'docs/{page} is missing'
        assert path.read_text().strip(), f'docs/{page} is empty'


def test_docs_internal_links_resolve():
    """Relative markdown links between doc pages must point at real files."""
    for page in REQUIRED_PAGES:
        text = (DOCS / page).read_text()
        for target in re.findall(r'\]\(([^)#:]+\.md)[^)]*\)', text):
            assert (DOCS / target).is_file(), (
                f'docs/{page} links to {target}, which does not exist')


def test_serving_doc_snippets_run(capsys):
    """Execute every python block of docs/serving.md, in order, shared ns."""
    count = run_page_blocks('serving.md', {})
    assert count >= 5, 'the serving tutorial lost its code blocks'
    # the tutorial's own prints are the snippets' output; swallow them
    capsys.readouterr()


def test_fleet_doc_snippets_run(capsys):
    """Execute every python block of docs/fleet.md, in order, shared ns."""
    count = run_page_blocks('fleet.md', {})
    assert count >= 5, 'the fleet tutorial lost its code blocks'
    capsys.readouterr()


def test_deployment_doc_snippets_run(capsys):
    """Execute every python block of docs/deployment.md, in order."""
    count = run_page_blocks('deployment.md', {})
    assert count >= 5, 'the deployment tutorial lost its code blocks'
    capsys.readouterr()


def test_observability_doc_snippets_run(capsys):
    """Execute every python block of docs/observability.md, in order."""
    count = run_page_blocks('observability.md', {})
    assert count >= 5, 'the observability tutorial lost its code blocks'
    capsys.readouterr()


def test_tuning_doc_snippets_run(capsys):
    """Execute every python block of docs/tuning.md, in order."""
    count = run_page_blocks('tuning.md', {})
    assert count >= 5, 'the tuning tutorial lost its code blocks'
    capsys.readouterr()


def test_analysis_doc_snippets_run(capsys):
    """Execute every python block of docs/analysis.md, in order."""
    count = run_page_blocks('analysis.md', {})
    assert count >= 5, 'the analysis tutorial lost its code blocks'
    capsys.readouterr()


def test_other_docs_snippets_are_marked_non_runnable(capsys):
    """architecture.md / cache.md illustrate with ``text`` blocks or inline
    code; if someone adds a ``python`` block there it must run too."""
    for page in REQUIRED_PAGES:
        if page in TUTORIAL_PAGES:
            continue
        run_page_blocks(page, {})
    capsys.readouterr()


def test_deployment_field_reference_covers_every_spec_field():
    """docs/deployment.md §8 has a row for every dataclass field of every
    spec node, and each row of a bounded field states its lower bound."""
    import dataclasses

    from repro.serve import deployment
    text = (DOCS / 'deployment.md').read_text()
    reference = text[text.index('## 8. Field reference'):]
    rows: dict[str, dict[str, str]] = {}
    for section in re.split(r'^### ', reference, flags=re.MULTILINE)[1:]:
        node = re.match(r'`(\w+)`', section).group(1)
        for line in section.splitlines():
            if line.startswith('| `'):
                names = line.split('|')[1]
                for name in re.findall(r'`(\w+)`', names):
                    rows.setdefault(node, {})[name] = line
    nodes = [getattr(deployment, name) for name in deployment.__all__
             if dataclasses.is_dataclass(getattr(deployment, name))]
    assert len(nodes) >= 9
    for node in nodes:
        documented = rows.get(node.__name__, {})
        for fld in dataclasses.fields(node):
            assert fld.name in documented, (
                f'docs/deployment.md §8 has no row for '
                f'{node.__name__}.{fld.name}')
            if 'min' in fld.metadata:
                assert f'>= {fld.metadata["min"]}' in documented[fld.name], (
                    f'the {node.__name__}.{fld.name} row does not state '
                    f'its bound >= {fld.metadata["min"]}')
