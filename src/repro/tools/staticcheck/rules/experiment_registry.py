"""SC601 experiment-registry: figure/table modules expose the common API.

Every ``experiments/fig*.py`` / ``experiments/table*.py`` module is driven
by the CLI (``python -m repro <id>``) and the tests through one convention:

* a top-level ``run(...)`` whose parameters ALL have defaults, so
  ``module.run()`` regenerates the figure with the paper's configuration;
* a top-level ``render(result)`` turning the result into text;
* an entry in ``experiments/__init__.py``'s ``REGISTRY`` so harnesses can
  enumerate it.

A module that drifts from the convention silently disappears from full
regeneration runs — exactly the kind of rot this checker exists to stop.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..engine import ModuleInfo, Project, Rule, Violation


def _is_experiment_file(module: ModuleInfo) -> bool:
    path = Path(module.relpath)
    if path.parent.name != "experiments":
        return False
    return path.name.startswith(("fig", "table")) and path.name != "__init__.py"


def _toplevel_function(tree: ast.Module, name: str) -> ast.FunctionDef | None:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _all_params_defaulted(fn: ast.FunctionDef) -> bool:
    args = fn.args
    required_positional = len(args.args) - len(args.defaults)
    if required_positional > 0:
        return False
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        del arg
        if default is None:
            return False
    return True


class ExperimentRegistryRule(Rule):
    id = "SC601"
    name = "experiment-registry"
    description = (
        "experiments/fig*.py and table*.py must expose run() (all params "
        "defaulted) and render(result), and be listed in REGISTRY"
    )

    def check_project(self, project: Project) -> Iterator[Violation]:
        experiment_modules = [m for m in project.modules if _is_experiment_file(m)]
        if not experiment_modules:
            return

        registered = self._registry_entries(project)

        for module in experiment_modules:
            module_name = Path(module.relpath).stem
            run = _toplevel_function(module.tree, "run")
            if run is None:
                yield self.violation(
                    module,
                    module.tree,
                    f"experiment module {module_name!r} has no top-level run()",
                )
            elif not _all_params_defaulted(run):
                yield self.violation(
                    module,
                    run,
                    f"{module_name}.run() has parameters without defaults; the "
                    "harness must be able to call run() with no arguments",
                )
            render = _toplevel_function(module.tree, "render")
            if render is None:
                yield self.violation(
                    module,
                    module.tree,
                    f"experiment module {module_name!r} has no top-level "
                    "render(result)",
                )
            elif not render.args.args:
                yield self.violation(
                    module,
                    render,
                    f"{module_name}.render() must accept the run() result as "
                    "its first parameter",
                )
            if registered is not None and module_name not in registered:
                yield self.violation(
                    module,
                    module.tree,
                    f"experiment module {module_name!r} is missing from "
                    "experiments/__init__.py REGISTRY",
                )

    def _registry_entries(self, project: Project) -> set[str] | None:
        """Module names registered in experiments/__init__.py, if present."""
        init = project.by_relpath("experiments/__init__.py")
        if init is None:
            return None
        for node in ast.walk(init.tree):
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "REGISTRY" not in targets or not isinstance(node.value, ast.Dict):
                continue
            entries: set[str] = set()
            for value in node.value.values:
                if isinstance(value, ast.Name):
                    entries.add(value.id)
                elif isinstance(value, ast.Attribute):
                    entries.add(value.attr)
            return entries
        return None
