"""AST-grounded invariant analyzer for the declustering simulator.

Layout:
    lexer.py     C++ tokenizer (comments/strings handled, preprocessor
                 logical lines captured as directives)
    parser.py    heuristic parser: file/function/statement IR
    ir.py        the IR dataclasses the checks read
    checks.py    the checks: token rules and semantic rules
    analyze.py   command-line driver (also `python3 -m tools.analyze`)
"""
