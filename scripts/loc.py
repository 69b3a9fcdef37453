#!/usr/bin/env python3
"""Count the workspace's non-test Rust lines.

Counts every `.rs` file under `crates/*/src`, `src/` and `examples/`,
skipping `#[cfg(test)] mod name { ... }` blocks. Prints two numbers: all
remaining lines, and those that are neither blank nor `//` comments.

Usage: scripts/loc.py [REPO_ROOT]   (defaults to the current directory)
"""

import sys
from pathlib import Path


def non_test_lines(text):
    """The lines of `text` outside `#[cfg(test)] mod ... { ... }` blocks."""
    lines = text.split("\n")
    out = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == "#[cfg(test)]" and i + 1 < len(lines) and \
                lines[i + 1].lstrip().startswith("mod ") and lines[i + 1].rstrip().endswith("{"):
            depth = 0
            i += 1
            while i < len(lines):
                depth += lines[i].count("{") - lines[i].count("}")
                i += 1
                if depth <= 0:
                    break
            continue
        out.append(lines[i])
        i += 1
    return out


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(root.glob("crates/*/src/**/*.rs"))
    files += sorted(root.glob("src/**/*.rs"))
    files += sorted(root.glob("examples/**/*.rs"))
    total = code = 0
    for path in files:
        lines = non_test_lines(path.read_text())
        total += len(lines)
        code += sum(1 for l in lines if l.strip() and not l.strip().startswith("//"))
    print(f"files={len(files)} lines={total} code={code}")


if __name__ == "__main__":
    main()
