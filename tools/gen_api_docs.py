"""Generate docs/API.md from the package's docstrings.

Walks every public module of :mod:`repro`, collects module, class and
function docstrings (first paragraph), and renders a single markdown
API reference.  Run from the repo root:

    python tools/gen_api_docs.py [output_path]
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from typing import List


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    para = doc.split("\n\n", 1)[0].strip()
    return " ".join(line.strip() for line in para.splitlines())


def public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in sorted(names):
        obj = getattr(module, name, None)
        if obj is None:
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        # unwrap: a memoized function (functools.lru_cache) is still
        # a function of this module.
        if inspect.isclass(obj) or inspect.isfunction(inspect.unwrap(obj)):
            if defined_here:
                yield name, obj


def iter_modules(package):
    yield package
    for info in pkgutil.walk_packages(
        package.__path__, prefix=package.__name__ + "."
    ):
        if info.name.endswith("__main__"):
            continue
        yield importlib.import_module(info.name)


class _Name:
    """A default value rendered as its dotted name."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __repr__(self) -> str:
        return self.text


def _stable_default(value):
    """Callable defaults render as ``module.qualname``: their ``repr``
    carries a memory address that changes on every run."""
    qualname = getattr(value, "__qualname__", None)
    if not callable(value) or qualname is None:
        return value
    module = getattr(value, "__module__", None)
    return _Name(f"{module}.{qualname}" if module else qualname)


def signature_of(obj) -> str:
    try:
        sig = inspect.signature(obj)
    except (TypeError, ValueError):
        return "(...)"
    params = [
        p
        if p.default is inspect.Parameter.empty
        else p.replace(default=_stable_default(p.default))
        for p in sig.parameters.values()
    ]
    return str(sig.replace(parameters=params))


def generate() -> str:
    import repro

    lines: List[str] = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py`; regenerate after any",
        "public-API change.",
        "",
    ]
    for module in iter_modules(repro):
        members = list(public_members(module))
        mod_doc = first_paragraph(module)
        if not members and not mod_doc:
            continue
        lines.append(f"## `{module.__name__}`")
        lines.append("")
        if mod_doc:
            lines.append(mod_doc)
            lines.append("")
        for name, obj in members:
            kind = "class" if inspect.isclass(obj) else "def"
            sig = "" if inspect.isclass(obj) else signature_of(obj)
            lines.append(f"### `{kind} {name}{sig}`")
            lines.append("")
            doc = first_paragraph(obj)
            if doc:
                lines.append(doc)
                lines.append("")
    return "\n".join(lines) + "\n"


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "docs/API.md"
    import pathlib

    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(generate(), encoding="utf-8")
    print(f"wrote {path} ({len(path.read_text().splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
