#!/usr/bin/env python3
"""Checks that every library module under src/ has a consumer and
includes only what its library links.

    python3 scripts/check_library_consumers.py [repo-root]

A module is a header src/<dir>/<stem>.hpp plus src/<dir>/<stem>.cpp when
it has one. Three rules:

  * a header must be included by some file other than its own .cpp, the
    umbrella src/rwc.hpp and the tests (tests/): another library module,
    a bench or figure driver, an example or the benchmark (perfbench/).
    The differential oracles in ORACLES are exempt: tests compare the
    engines against them, and that is their only job;
  * a source file must have a header of the same stem, so src/ compiles
    nothing that no header declares;
  * a file under src/<n>/ may include <m>/... only when rwc_<n> links
    rwc::<m> in src/CMakeLists.txt, directly or transitively. The build
    cannot catch this itself: a header-only include compiles whatever
    the link graph says.

Prints every violation and exits 1 when there is one, else prints a
summary and exits 0.
"""

import re
import sys
from pathlib import Path

# Reference implementations that only tests call, by design.
ORACLES = {'te/mcf_lp.hpp', 'te/ecmp.hpp', 'flow/cycle_cancel.hpp'}
# Directories whose includes count as consumers; tests/ does not.
CONSUMERS = ('src', 'bench', 'examples', 'perfbench')
UMBRELLA = 'rwc.hpp'
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
LIBRARY = re.compile(r'rwc_add_library\(\s*(\w+)([^)]*)\)')


def link_closure(cmake):
    """Maps each library to itself and every library it links."""
    links = {name: set(re.findall(r'rwc::(\w+)', deps))
             for name, deps in LIBRARY.findall(cmake)}
    closure = {}
    for name in links:
        seen, stack = {name}, [name]
        while stack:
            for dep in links.get(stack.pop(), ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        closure[name] = seen
    return closure


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent)
    src = root / 'src'
    headers = {p.relative_to(src).as_posix()
               for p in src.rglob('*.hpp')} - {UMBRELLA}
    sources = sorted(p.relative_to(src).as_posix()
                     for p in src.rglob('*.cpp'))

    consumed = set()
    for directory in CONSUMERS:
        for path in sorted((root / directory).rglob('*')):
            if path.suffix not in ('.cpp', '.hpp'):
                continue
            rel = path.relative_to(root).as_posix()
            if rel == f'src/{UMBRELLA}':
                continue
            for target in INCLUDE.findall(path.read_text()):
                if rel == f'src/{target[:-len(".hpp")]}.cpp':
                    continue  # a module's own source
                consumed.add(target)

    problems = []
    for header in sorted(headers - consumed - ORACLES):
        problems.append(f'src/{header}: included only by its own source, '
                        f'{UMBRELLA} or tests/')
    for source in sources:
        if f'{source[:-len(".cpp")]}.hpp' not in headers:
            problems.append(f'src/{source}: no header of the same stem')
    closure = link_closure((src / 'CMakeLists.txt').read_text())
    for path in sorted(src.rglob('*')):
        if path.suffix not in ('.cpp', '.hpp') or path.parent == src:
            continue
        module = path.parent.relative_to(src).parts[0]
        for target in INCLUDE.findall(path.read_text()):
            dep = target.split('/')[0]
            if dep in closure and dep not in closure.get(module, {module}):
                problems.append(
                    f'src/{path.relative_to(src).as_posix()}: includes '
                    f'{target}, but rwc_{module} does not link rwc::{dep}')

    for problem in problems:
        print(problem)
    if problems:
        print(f'{len(problems)} finding(s)')
        return 1
    print(f'every library module has a consumer and includes only what '
          f'its library links: {len(headers)} headers '
          f'({len(ORACLES)} test oracles), {len(sources)} sources, '
          f'{len(closure)} libraries')
    return 0


if __name__ == '__main__':
    sys.exit(main())
