#!/usr/bin/env python3
"""Checks the metric catalog in docs/OBSERVABILITY.md against the code.

    python3 scripts/check_metric_catalog.py [repo-root]

Collects every metric the code under src/ and bench/ registers: the
string literal passed to obs::Registry's counter(), gauge() or histogram(),
wherever the call breaks its lines.

A literal that is concatenated with a run-time value ("fault.site." + site)
is a prefix: it stands for every name that starts with it.

It diffs that set in both directions against the first column of the
catalog tables (section 3 of docs/OBSERVABILITY.md). A catalog name that
holds `*` or `<placeholder>` is a pattern row and matches by the prefix
before it; `.suffix` after a slash continues the previous name. Prints
every difference and exits 1 when there is one, else prints a summary and
exits 0.
"""

import re
import sys
from pathlib import Path

CALL = re.compile(
    r'\b(?:counter|gauge|histogram)\(\s*(?:std::string\(\s*)?'
    r'"((?:[^"\\]|\\.)*)"\s*\)?\s*(\+)?')
BACKTICKED = re.compile(r'`([^`]+)`')


def strip_comments(text):
    """`text` with C++ comments blanked out; string literals are kept."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == '\\' else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith('//', i):
            j = text.find('\n', i)
            i = n if j < 0 else j
        elif text.startswith('/*', i):
            j = text.find('*/', i + 2)
            i = n if j < 0 else j + 2
            out.append(' ')
        else:
            out.append(c)
            i += 1
    return ''.join(out)


def code_metrics(root):
    """(exact names, run-time prefixes) registered under src/ and bench/."""
    names, prefixes = set(), set()
    for directory in ('src', 'bench'):
        for path in sorted((root / directory).rglob('*')):
            if path.suffix not in ('.cpp', '.hpp'):
                continue
            text = strip_comments(path.read_text())
            for match in CALL.finditer(text):
                (prefixes if match.group(2) else names).add(match.group(1))
    return names, prefixes


def catalog_metrics(doc):
    """(exact names, pattern prefixes) in the section 3 table first columns."""
    names, patterns = set(), set()
    section = doc.split('\n## 3.', 1)[1].split('\n## ', 1)[0]
    for line in section.splitlines():
        if not line.startswith('|') or line.startswith('|---'):
            continue
        first = line.split('|')[1]
        previous = None
        for token in BACKTICKED.findall(first):
            if token.startswith('.') and previous is not None:
                token = previous.rsplit('.', 1)[0] + token
            previous = token
            cut = min((token.find(c) for c in '*<' if c in token),
                      default=-1)
            if cut >= 0:
                patterns.add(token[:cut])
            else:
                names.add(token)
    return names, patterns


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent)
    code_names, code_prefixes = code_metrics(root)
    doc_names, doc_patterns = catalog_metrics(
        (root / 'docs' / 'OBSERVABILITY.md').read_text())

    def covers(prefix, other):
        return prefix.startswith(other) or other.startswith(prefix)

    problems = []
    for name in sorted(code_names):
        if name not in doc_names and not any(
                name.startswith(p) for p in doc_patterns):
            problems.append(f'in code, not in the catalog: {name}')
    for prefix in sorted(code_prefixes):
        if not any(covers(prefix, p) for p in doc_patterns):
            problems.append(
                f'in code, not in the catalog: {prefix}<run-time suffix>')
    for name in sorted(doc_names):
        if name not in code_names and not any(
                name.startswith(p) for p in code_prefixes):
            problems.append(f'in the catalog, not in code: {name}')
    for pattern in sorted(doc_patterns):
        if not any(covers(pattern, p) for p in code_prefixes) and not any(
                n.startswith(pattern) for n in code_names):
            problems.append(f'in the catalog, not in code: {pattern}*')

    for problem in problems:
        print(problem)
    if problems:
        print(f'{len(problems)} difference(s) between docs/OBSERVABILITY.md '
              'and the code')
        return 1
    print(f'metric catalog matches the code: {len(code_names)} names, '
          f'{len(code_prefixes)} run-time prefixes')
    return 0


if __name__ == '__main__':
    sys.exit(main())
