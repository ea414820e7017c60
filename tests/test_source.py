"""Source checks on src/pncomp, tests and the README: no module imports
a name it never uses, no function or class of src/pncomp is left that
nothing in src/pncomp reaches, every pncomp name the README cites
exists, the README's rule paragraph names every key of the config
rule table, its `pncomp run` usage block names exactly the options
of the CLI parser, each backticked word its CLI section says "must"
of is a config key, each `run` option but `--config`, `--out` and
`--full` stores its value under the config key it overrides, and only
the fit's fallbacks and solve_tls reach solve_ls and so numerics.pinv.

No linter is part of the toolchain, so the first two are small `ast`
checks.  Every name an `import` or `from ... import` binds must be read
somewhere in the module: as a name, the root of an attribute chain, or an
entry of `__all__`.  `from __future__ import ...` binds nothing and is
skipped.
"""

import argparse
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

from pncomp.harness import _RULES, Scenario, main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pncomp"
MODULES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names source imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # __all__ = [...] re-exports its names
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return [name for name in imported if name not in read]


def test_checker_finds_leftovers():
    source = ("from __future__ import annotations\n"
              "from dataclasses import dataclass, field\n"
              "import os.path\n"
              "import numpy as np\n"
              "from .numerics import CVec, fft\n"
              "__all__ = ['fft']\n"
              "x: CVec = np.zeros(3)\n"
              "y = field\n")
    assert unused_imports(source) == ["dataclass", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# definitions kept although no code in src/pncomp reaches them
REACH_ALLOWLIST = {
    "channel.apply_channel": "bench/tracing.py LAYERS wraps it, and "
                             "Tracer.install raises on a missing name",
    "mimo.mu_received": "bench/tracing.py LAYERS wraps it",
    "ofdm.evm_db": "bench/tracing.py LAYERS wraps it",
    "phase_noise.save_pn_samples": "the documented pn_file writer",
}


def definitions(sources: dict[str, str]):
    """(trees, defs, scopes) of the package whose modules' sources are
    sources {module: source}: each module's syntax tree, its module-level
    functions and classes as {"module.name": node}, and per module the
    names bound to them, {name: "module.name"}, through its definitions
    and relative imports: `from .m import f as g` binds g to m.f, `from .
    import m as a` binds a to m."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    defs, scopes = {}, {}
    for mod, tree in trees.items():
        scope = scopes[mod] = {}
        for node in tree.body:
            if isinstance(node, DEFS):
                defs[f"{mod}.{node.name}"] = node
                scope[node.name] = f"{mod}.{node.name}"
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = ".".join(
                        filter(None, (node.module, alias.name)))
    return trees, defs, scopes


def reads(trees, scopes, mod: str, nodes) -> set[str]:
    """The package names, as "module.name", that nodes of module mod read:
    a bound name, or an attribute of a bound module."""
    scope, found = scopes[mod], set()
    for sub in (s for node in nodes for s in ast.walk(node)):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and scope.get(sub.value.id) in trees):
            found.add(f"{scope[sub.value.id]}.{sub.attr}")
        elif isinstance(sub, ast.Name) and sub.id in scope:
            found.add(scope[sub.id])
    return found


def unreached(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes, as "module.name", of the
    package whose modules' sources are sources {module: source} that no
    reached code reads, sorted.  Module-level code outside definitions is
    reached, and so, in turn, is the whole definition (body, decorators,
    defaults and annotations) of each name that reached code reads.  A
    name resolves through its module's definitions and relative imports
    (see definitions)."""
    trees, defs, scopes = definitions(sources)
    reached = set()
    todo = [(mod, [n for n in tree.body if not isinstance(n, DEFS)])
            for mod, tree in trees.items()]
    while todo:
        mod, nodes = todo.pop()
        found = reads(trees, scopes, mod, nodes)
        for target in (found & defs.keys()) - reached:
            reached.add(target)
            todo.append((target.split(".")[0], [defs[target]]))
    return sorted(set(defs) - reached)


def test_reach_checker_finds_dead_code():
    sources = {
        "a": ("from .b import helper as h\n"
              "from . import b as bm\n"
              "def used():\n    return h() + bm.other()\n"
              "def dead():\n    return deader()\n"
              "def deader():\n    return 1\n"
              "class K:\n    def m(self):\n        return used()\n"
              "RUN = K\n"),
        "b": ("def helper():\n    return 1\n"
              "def other():\n    return helper()\n"
              "def orphan():\n    return orphan()\n"),
    }
    # deader is read only by dead, which nothing reaches; orphan only by
    # itself
    assert unreached(sources) == ["a.dead", "a.deader", "b.orphan"]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_every_definition_reached():
    assert unreached(package_sources()) == sorted(REACH_ALLOWLIST)


def test_reach_check_fails_on_uncalled_helper():
    sources = package_sources()
    sources["ofdm"] += "\n\ndef _uncalled(x):\n    return evm_db(x, x)\n"
    assert "ofdm._uncalled" in unreached(sources)


def readers(sources: dict[str, str], target: str) -> list[str]:
    """The module-level functions and classes but target itself, as
    "module.name", whose definitions read target "module.name" by a name
    bound to it or through its module, or read any attribute of its name
    (np.linalg.pinv reads numerics.pinv), sorted."""
    trees, defs, scopes = definitions(sources)
    attr = target.split(".")[1]
    return sorted(
        name for name, node in defs.items() if name != target and (
            target in reads(trees, scopes, name.split(".")[0], [node])
            or any(isinstance(sub, ast.Attribute) and sub.attr == attr
                   for sub in ast.walk(node))))


# one LS algorithm: fit_prefixes's QR, with solve_ls's pinv reached only
# from the fit's fallbacks and from solve_tls's LS refits
LS_READERS = {
    "compensator.solve_ls": ["compensator.fit_prefixes",
                             "compensator.solve_tls"],
    "numerics.pinv": ["compensator.solve_ls"],
}


def test_pinv_reached_only_through_fit_fallbacks():
    sources = package_sources()
    assert {t: readers(sources, t) for t in LS_READERS} == LS_READERS


def test_ls_path_check_finds_second_ls_path():
    # run_tracked fitting by solve_ls itself, and mu_compensate by
    # np.linalg.pinv, are each a second LS path
    sources = package_sources()
    for mod, old, new in [
            ("tracker", "compensate, fit_prefixes",
             "compensate, fit_prefixes, solve_ls"),
            ("tracker", "fit_prefixes(w, rcv, ref, (d,))[d]",
             "solve_ls(w[rcv.rows], ref[rcv.rows[1]])"),
            ("mimo", "fit_prefixes(w, rcv, np.ravel(refs), (d,))[d]",
             "np.linalg.pinv(w[rcv.rows]) @ np.ravel(refs)[rcv.tones]")]:
        assert old in sources[mod]
        sources[mod] = sources[mod].replace(old, new)
    assert readers(sources, "compensator.solve_ls") == [
        "compensator.fit_prefixes", "compensator.solve_tls",
        "tracker.run_tracked"]
    assert readers(sources, "numerics.pinv") == ["compensator.solve_ls",
                                                 "mimo.mu_compensate"]


def readme_references(text: str) -> list[str]:
    """Each inline code span of Markdown text that starts with
    `module.name`, module one of pncomp's, as "module.name", in order.
    Fenced blocks are skipped; a span may wrap across lines."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    refs = [re.match(r"(\w+)\.(\w+)", span) for span in spans]
    return [ref[0] for ref in refs if ref and ref[1] in modules]


def unresolved(refs: list[str]) -> list[str]:
    """The "module.name" references that name nothing in pncomp."""
    return [ref for ref in refs if not hasattr(
        importlib.import_module("pncomp." + ref.split(".")[0]),
        ref.split(".")[1])]


def test_reference_checker_finds_stale_names():
    text = ("`mimo.MuSystem` and `mimo.zf_beamformer(lam)` of\n"
            "`np.sum` and `pncomp.mimo`; `harness._channel_symbols` wraps\n"
            "`ofdm.evm_db(est,\nref)`\n```sh\nx = `channel.Gone`\n```\n")
    refs = readme_references(text)
    assert refs == ["mimo.MuSystem", "mimo.zf_beamformer",
                    "harness._channel_symbols", "ofdm.evm_db"]
    assert unresolved(refs) == ["mimo.MuSystem"]


def test_readme_references_resolve():
    refs = readme_references((ROOT / "README.md").read_text())
    assert refs, "no module.name reference found"
    assert unresolved(refs) == []


def rule_paragraph(text: str) -> str:
    """The first top-level list item of Markdown text that cites
    `harness._RULES`; an item ends at the next item or a blank line."""
    items = re.findall(r"^- .*?(?=\n- |\n\n|\Z)", text, flags=re.M | re.S)
    return next(item for item in items if "`harness._RULES`" in item)


def unnamed_rule_keys(paragraph: str) -> list[str]:
    """The keys of harness._RULES that paragraph never names in
    backticks, in table order."""
    named = set(re.findall(r"`(\w+)`", paragraph))
    return [key for key in _RULES if key not in named]


def test_readme_names_every_rule_key():
    paragraph = rule_paragraph((ROOT / "README.md").read_text())
    assert unnamed_rule_keys(paragraph) == []


def test_rule_key_check_finds_unnamed_key():
    paragraph = rule_paragraph((ROOT / "README.md").read_text())
    for key in _RULES:
        assert unnamed_rule_keys(paragraph.replace(f"`{key}`", key)) == [key]


def usage_options(text: str) -> set[str]:
    """The `--option` names of the fenced block of Markdown text that
    shows `pncomp run`."""
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    usage = next(block for block in blocks if "pncomp run" in block)
    return set(re.findall(r"--[\w-]+", usage))


def run_actions(monkeypatch) -> list[argparse.Action]:
    """The options, help aside, that main's `run` parser defines, in
    order, read off the parser main builds: its parse_args exits before
    it parses anything."""
    parsers = []

    def stop(parser, *args, **kwargs):
        parsers.append(parser)
        raise SystemExit(0)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", stop)
    with pytest.raises(SystemExit):
        main(["run"])
    sub, = (action for action in parsers[0]._actions
            if isinstance(action, argparse._SubParsersAction))
    return [action for action in sub.choices["run"]._actions
            if action.dest != "help"]


def run_options(monkeypatch) -> set[str]:
    """The option strings of run_actions."""
    return {opt for action in run_actions(monkeypatch)
            for opt in action.option_strings}


def test_readme_usage_matches_parser(monkeypatch):
    options = run_options(monkeypatch)
    assert "--config" in options
    assert usage_options((ROOT / "README.md").read_text()) == options


def test_usage_check_finds_stale_option(monkeypatch):
    text = (ROOT / "README.md").read_text().replace(
        "[--full]", "[--full] [--timing]")
    assert usage_options(text) - run_options(monkeypatch) == {"--timing"}


def must_words(text: str) -> list[str]:
    """The backticked snake_case words of the CLI section of Markdown
    text that are directly followed by "must", in order."""
    section = re.search(r"^## CLI\n(.*?)(?=^## |\Z)", text,
                        flags=re.M | re.S)[1]
    return re.findall(r"`([a-z][a-z0-9_]*)`\s+must\b", section)


def non_keys(words: list[str]) -> list[str]:
    """The words that are not Scenario fields, which parse_config rejects
    as unknown keys."""
    fields = {f.name for f in dataclasses.fields(Scenario)}
    return [word for word in words if word not in fields]


def test_readme_rules_name_only_config_keys():
    words = must_words((ROOT / "README.md").read_text())
    assert "null_tones" in words
    assert non_keys(words) == []


def test_rule_key_check_finds_non_key():
    text = (ROOT / "README.md").read_text().replace(
        "`null_tones` must", "`n` must be 64; `null_tones` must")
    assert non_keys(must_words(text)) == ["n"]


def test_run_options_set_config_keys(monkeypatch):
    # each option that is not CLI-only stores its value under the config
    # key it overrides, so renaming a key cannot silently unhook its flag
    dests = [action.dest for action in run_actions(monkeypatch)]
    assert non_keys(dests) == ["config", "out", "full"]
