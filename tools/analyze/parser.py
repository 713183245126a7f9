"""Heuristic C++ structural/statement parser.

Builds the ir.py FileIR from the lexer's token stream.  This is not a
conforming C++ parser — it is a structural one: it tracks namespace and
class scopes, finds function definitions and declarations (including
constructors, destructors, and operators), and parses bodies into a
statement tree with real if/else/loop structure.  That is exactly the
granularity the checks need for path-sensitive lifetime analysis and
call-graph reachability, and it is robust against the constructs that
break regex lint (multi-line expressions, aliased calls, literals,
comments).

Known, deliberate approximations (shared with the check design):
  - overload sets collapse to one name; reachability is name-based and
    therefore over-approximate (safe direction for the hot-path check),
  - preprocessor conditionals contribute BOTH branches' tokens (the
    analyzer audits all configurations at once),
  - template bodies are parsed like ordinary functions (no
    instantiation),
  - preprocessor directive bodies are not tokens: an #include or
    #define line contributes its include path or macro name only.
"""

from . import lexer
from .ir import FileIR, FunctionIR, Stmt

_CONTROL = {
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "static_assert", "new", "delete", "throw",
    "case", "default", "do", "else", "goto", "noexcept", "assert",
}
_SPECIFIERS = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "&", "&&", "constexpr", "inline",
}
_OPEN = {"(": ")", "[": "]", "{": "}"}
_CLOSE = {")": "(", "]": "[", "}": "{"}

SUPPRESS_MACRO = "DECLUST_ANALYZE_SUPPRESS"
HOT_PATH_MACRO = "DECLUST_HOT_PATH"


def _match_forward(tokens, i, end):
    """tokens[i] is an opener; return index just past its match."""
    depth = 0
    while i < end:
        t = tokens[i].text
        if t in _OPEN:
            depth += 1
        elif t in _CLOSE:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return end


def _skip_template_header(tokens, i, end):
    """tokens[i] == 'template'; skip the <...> header."""
    i += 1
    if i < end and tokens[i].text == "<":
        depth = 0
        while i < end:
            t = tokens[i].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t in "([":
                i = _match_forward(tokens, i, end)
                continue
            i += 1
    return i


def _skip_to_semi(tokens, i, end):
    """Advance past the next ';' at bracket depth 0."""
    depth = 0
    while i < end:
        t = tokens[i].text
        if t in _OPEN:
            depth += 1
        elif t in _CLOSE:
            depth -= 1
        elif t == ";" and depth == 0:
            return i + 1
        i += 1
    return end


class _Parser:
    def __init__(self, rel, text):
        self.rel = rel
        tokens, directives = lexer.lex(text)
        self.tokens = tokens
        self.fir = FileIR(rel=rel,
                          is_header=rel.endswith((".hpp", ".h")))
        for d in directives:
            if d.kind == "include" and d.text:
                angled = d.text.startswith("<")
                path = d.text.strip('<>"')
                self.fir.includes.append((d.line, path, angled))
            elif d.kind == "define" and d.text:
                name = d.text.split("(", 1)[0].split(None, 1)[0]
                if name:
                    self.fir.defined_macros.setdefault(name, d.line)
            elif d.kind == "pragma":
                self.fir.pragmas.append(d.text)
        self._collect_identifiers()
        self._collect_suppressions()

    # -- pre-passes ----------------------------------------------------

    def _collect_identifiers(self):
        toks = self.tokens
        n = len(toks)
        for idx, t in enumerate(toks):
            if t.kind == "id":
                prev = toks[idx - 1].text if idx else ""
                nxt = toks[idx + 1].text if idx + 1 < n else ""
                after = toks[idx + 2].text if idx + 2 < n else ""
                self.fir.identifiers.append((t.text, t.line, prev, nxt,
                                             after))

    def _collect_suppressions(self):
        """A suppression covers its own macro call (which may span
        lines) plus the whole NEXT statement: every line up to and
        including the first top-level ';', '{' or '}' after the call.
        The rule list is the comma-separated text before the first ':'
        of the (possibly concatenated) string literal."""
        toks = self.tokens
        n = len(toks)
        for idx, t in enumerate(toks):
            if t.kind != "id" or t.text != SUPPRESS_MACRO:
                continue
            if idx + 1 >= n or toks[idx + 1].text != "(":
                continue
            close = _match_forward(toks, idx + 1, n)
            spec = "".join(toks[j].text.strip('"')
                           for j in range(idx + 2, close - 1)
                           if toks[j].kind == "str")
            spec = spec.split(":", 1)[0]
            rules = {r.strip() for r in spec.split(",") if r.strip()}
            covered = {toks[j].line for j in range(idx, close)}
            self.fir.suppress_sites |= covered
            j = close
            if j < n and toks[j].text == ";":
                covered.add(toks[j].line)
                j += 1
            depth = 0
            while j < n:
                covered.add(toks[j].line)
                text = toks[j].text
                if text in ("(", "["):
                    depth += 1
                elif text in (")", "]"):
                    depth -= 1
                elif depth == 0 and text in (";", "{", "}"):
                    break
                j += 1
            for line in covered:
                self.fir.suppressions.setdefault(line, set()) \
                    .update(rules)

    # -- structural scan -----------------------------------------------

    def parse(self):
        self._scan_scope(0, len(self.tokens), [])
        return self.fir

    def _scan_scope(self, i, end, scope, in_class=False):
        toks = self.tokens
        pending_hot = False
        while i < end:
            t = toks[i]
            text = t.text

            if text == ";":
                i += 1
                continue
            if text == HOT_PATH_MACRO:
                pending_hot = True
                i += 1
                continue
            if text == SUPPRESS_MACRO:
                i += 1
                if i < end and toks[i].text == "(":
                    i = _match_forward(toks, i, end)
                continue
            if text == "template":
                i = _skip_template_header(toks, i, end)
                continue
            if text == "[" and i + 1 < end and toks[i + 1].text == "[":
                i = _match_forward(toks, i, end)
                continue
            if text in ("public", "private", "protected") and \
                    i + 1 < end and toks[i + 1].text == ":":
                i += 2
                continue
            if text == "static_assert":
                i = _skip_to_semi(toks, i, end)
                continue
            if text == "friend":
                i += 1
                continue
            if text == "extern":
                # extern "C" { ... } reopens the same scope.
                if i + 2 < end and toks[i + 1].kind == "str" and \
                        toks[i + 2].text == "{":
                    close = _match_forward(toks, i + 2, end)
                    self._scan_scope(i + 3, close - 1, scope)
                    i = close
                    continue
                i += 1
                continue
            if text == "namespace":
                i = self._scan_namespace(i, end, scope)
                continue
            if text == "using":
                i = self._scan_using(i, end)
                continue
            if text == "typedef":
                j = _skip_to_semi(toks, i, end)
                # typedef ... Name ;
                k = j - 2
                if k > i and toks[k].kind == "id":
                    self.fir.defined_types.setdefault(toks[k].text,
                                                      toks[k].line)
                    self.fir.aliases[toks[k].text] = \
                        [x.text for x in toks[i + 1:k]]
                i = j
                continue
            if text in ("class", "struct", "union", "enum"):
                i = self._scan_type(i, end, scope, pending_hot)
                pending_hot = False
                continue

            # Generic declaration head.
            i, consumed_hot = self._scan_decl(i, end, scope, pending_hot,
                                              in_class)
            if consumed_hot:
                pending_hot = False
        return i

    def _scan_namespace(self, i, end, scope):
        toks = self.tokens
        j = i + 1
        names = []
        while j < end and toks[j].kind == "id":
            names.append(toks[j].text)
            j += 1
            if j < end and toks[j].text == "::":
                j += 1
                continue
            break
        if j < end and toks[j].text == "=":
            # namespace alias: ns = a::b::c;
            k = _skip_to_semi(toks, j, end)
            if names:
                self.fir.aliases[names[0]] = \
                    [x.text for x in toks[j + 1:k - 1]]
            return k
        if j < end and toks[j].text == "{":
            close = _match_forward(toks, j, end)
            self._scan_scope(j + 1, close - 1, scope + names)
            return close
        return j + 1

    def _scan_using(self, i, end):
        toks = self.tokens
        if i + 1 < end and toks[i + 1].text == "namespace":
            return _skip_to_semi(toks, i, end)
        if i + 2 < end and toks[i + 1].kind == "id" and \
                toks[i + 2].text == "=":
            name = toks[i + 1].text
            j = _skip_to_semi(toks, i + 2, end)
            self.fir.defined_types.setdefault(name, toks[i + 1].line)
            self.fir.aliases[name] = [x.text for x in toks[i + 3:j - 1]]
            return j
        return _skip_to_semi(toks, i, end)

    def _scan_type(self, i, end, scope, pending_hot):
        toks = self.tokens
        kw = toks[i].text
        j = i + 1
        if kw == "enum" and j < end and toks[j].text in ("class",
                                                         "struct"):
            j += 1
        # Skip attributes between keyword and name.
        while j < end and toks[j].text == "[" and \
                j + 1 < end and toks[j + 1].text == "[":
            j = _match_forward(toks, j, end)
        if j >= end or toks[j].kind != "id":
            # Anonymous struct/enum: skip its body if any.
            while j < end and toks[j].text not in ("{", ";"):
                j += 1
            if j < end and toks[j].text == "{":
                j = _match_forward(toks, j, end)
            return _skip_to_semi(toks, j, end) if j < end else end
        name = toks[j].text
        line = toks[j].line
        j += 1
        # Forward declaration?
        if j < end and toks[j].text == ";":
            self.fir.forward_decls.add(name)
            return j + 1
        # Base clause / enum underlying type: scan to '{' or ';'.
        depth = 0
        while j < end:
            tt = toks[j].text
            if tt in "([":
                j = _match_forward(toks, j, end)
                continue
            if tt == "{" or (tt == ";" and depth == 0):
                break
            j += 1
        if j >= end or toks[j].text == ";":
            self.fir.forward_decls.add(name)
            return j + 1 if j < end else end
        close = _match_forward(toks, j, end)
        self.fir.defined_types.setdefault(name, line)
        if kw != "enum":
            self._scan_scope(j + 1, close - 1, scope + [name],
                             in_class=True)
        # `} trailing_var ;`
        return _skip_to_semi(toks, close, end) \
            if close < end and toks[close].text != ";" else close

    # -- declarations / functions --------------------------------------

    def _scan_decl(self, i, end, scope, pending_hot, in_class=False):
        """Parse one declaration starting at i. Returns (next index,
        consumed_hot_annotation)."""
        toks = self.tokens
        j = i
        depth = 0
        while j < end:
            tt = toks[j].text
            if tt == "<":
                # Conservative template-argument skip: balanced to the
                # matching '>' on the same logical construct.
                j = self._skip_angles(j, end)
                continue
            if tt == "[":
                j = _match_forward(toks, j, end)
                continue
            if tt == "(":
                break
            if tt == "{":
                # Brace-init member/var: skip it, then the ';'.
                j = _match_forward(toks, j, end)
                return _skip_to_semi(toks, j, end), pending_hot
            if tt in (";",):
                return j + 1, pending_hot
            if tt == "=":
                return _skip_to_semi(toks, j, end), pending_hot
            j += 1
        if j >= end:
            return end, pending_hot

        # toks[j] == '('. Find the declarator name just before it.
        name, qual = self._name_before(i, j)
        if not name or name in _CONTROL:
            j = _match_forward(toks, j, end)
            return j, pending_hot

        close = _match_forward(toks, j, end)  # past ')'
        params = self._parse_params(j + 1, close - 1)

        k = close
        while k < end:
            tt = toks[k].text
            if tt in _SPECIFIERS:
                k += 1
                if tt == "noexcept" and k < end and \
                        toks[k].text == "(":
                    k = _match_forward(toks, k, end)
                continue
            if tt == "[" and k + 1 < end and toks[k + 1].text == "[":
                k = _match_forward(toks, k, end)
                continue
            if tt == "->":
                k += 1
                while k < end and toks[k].text not in ("{", ";", "="):
                    if toks[k].text in "([":
                        k = _match_forward(toks, k, end)
                    elif toks[k].text == "<":
                        k = self._skip_angles(k, end)
                    else:
                        k += 1
                continue
            break

        if k < end and toks[k].text == ";":
            self._record_function(name, qual, scope, toks[j].line,
                                  pending_hot, params, None, in_class)
            return k + 1, True
        if k < end and toks[k].text == "=":
            # = default / = delete / pure virtual.
            return _skip_to_semi(toks, k, end), True
        if k < end and toks[k].text == ":":
            # Constructor initializer list: scan to body '{' at depth 0.
            k += 1
            while k < end and toks[k].text != "{":
                if toks[k].text in "([{":
                    k = _match_forward(toks, k, end)
                elif toks[k].text == "<":
                    k = self._skip_angles(k, end)
                else:
                    k += 1
        if k < end and toks[k].text == "{":
            body_close = _match_forward(toks, k, end)
            body = _parse_stmts(toks, k + 1, body_close - 1)
            self._record_function(name, qual, scope, toks[j].line,
                                  pending_hot, params, body, in_class)
            return body_close, True
        # Not a function after all (e.g. function-pointer variable,
        # or a call expression at class scope we misread): resync.
        return _skip_to_semi(toks, close, end), pending_hot

    def _skip_angles(self, i, end):
        """tokens[i] == '<'; skip a balanced template-argument list.
        Falls back to i+1 when the '<' looks like a comparison."""
        toks = self.tokens
        depth = 0
        j = i
        limit = min(end, i + 400)
        while j < limit:
            tt = toks[j].text
            if tt == "<":
                depth += 1
            elif tt == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif tt == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif tt in "([":
                j = _match_forward(toks, j, end)
                continue
            elif tt in (";", "{", "}"):
                break
            j += 1
        return i + 1

    def _name_before(self, lo, paren):
        """Declarator name directly before the '(' at ``paren``."""
        toks = self.tokens
        m = paren - 1
        if m < lo:
            return None, None
        # operator overloads: operator== / operator() / operator[] ...
        for back in range(m, max(lo - 1, m - 4), -1):
            if toks[back].text == "operator":
                return "operator", self._qual_prefix(back)
        t = toks[m]
        if t.kind != "id":
            return None, None
        name = t.text
        if m - 1 >= lo and toks[m - 1].text == "~":
            name = "~" + name
            m -= 1
        return name, self._qual_prefix(m)

    def _qual_prefix(self, m):
        """Collect a leading A::B:: qualifier before token index m."""
        toks = self.tokens
        parts = []
        while m - 2 >= 0 and toks[m - 1].text == "::" and \
                toks[m - 2].kind == "id":
            parts.insert(0, toks[m - 2].text)
            m -= 2
        return parts

    def _parse_params(self, lo, hi):
        toks = self.tokens
        params = []
        if lo >= hi:
            return params
        start = lo
        depth = 0
        j = lo
        while j <= hi:
            tt = toks[j].text if j < hi else ","
            if j < hi and tt in "([{":
                j = _match_forward(toks, j, hi)
                continue
            if j < hi and tt == "<":
                j = self._skip_angles(j, hi)
                continue
            if tt == "," and depth == 0 or j == hi:
                piece = toks[start:j]
                ids = [p.text for p in piece if p.kind == "id"]
                if ids:
                    # Parameter name = trailing identifier when there
                    # are at least two ids (type + name) or a pointer/
                    # reference declarator before it.
                    name = ""
                    if piece and piece[-1].kind == "id" and \
                            (len(ids) > 1 or
                             any(p.text in "*&" for p in piece)):
                        name = piece[-1].text
                    types = [p.text for p in piece
                             if p.text != name]
                    params.append((types, name))
                start = j + 1
            j += 1
        return params

    def _record_function(self, name, qual, scope, line, hot, params,
                         body, in_class=False):
        scope_name = "::".join((qual or scope) if qual else scope)
        fn = FunctionIR(
            name=name,
            qual=(scope_name + "::" + name) if scope_name else name,
            line=line,
            hot_path=hot,
            is_method=in_class or bool(qual),
            has_body=body is not None,
            body=body or [],
            params=params,
        )
        self.fir.functions.append(fn)


# -- statement parsing -------------------------------------------------


def _parse_stmts(toks, i, end):
    stmts = []
    while i < end:
        s, i = _parse_stmt(toks, i, end)
        if s is not None:
            stmts.append(s)
    return stmts


def _collect_until_semi(toks, i, end):
    start = i
    depth = 0
    while i < end:
        tt = toks[i].text
        if tt in _OPEN:
            depth += 1
        elif tt in _CLOSE:
            if depth == 0:
                break
            depth -= 1
        elif tt == ";" and depth == 0:
            return toks[start:i], i + 1
        i += 1
    return toks[start:i], i


def _parse_stmt(toks, i, end):
    t = toks[i]
    text = t.text

    if text == ";":
        return None, i + 1
    if text == "{":
        close = _match_forward(toks, i, end)
        return Stmt("block", t.line,
                    body=_parse_stmts(toks, i + 1, close - 1)), close
    if text in ("case", "default"):
        while i < end and toks[i].text != ":":
            i += 1
        return None, i + 1
    if text == "if":
        j = i + 1
        if j < end and toks[j].text == "constexpr":
            j += 1
        cond_end = _match_forward(toks, j, end) if j < end else end
        cond = toks[j + 1:cond_end - 1]
        s = Stmt("if", t.line, tokens=cond)
        body_s, i2 = _parse_stmt(toks, cond_end, end)
        s.then_body = [body_s] if body_s else []
        if i2 < end and toks[i2].text == "else":
            else_s, i2 = _parse_stmt(toks, i2 + 1, end)
            s.else_body = [else_s] if else_s else []
        return s, i2
    if text in ("for", "while"):
        j = i + 1
        hdr_end = _match_forward(toks, j, end) if j < end else end
        hdr = toks[j + 1:hdr_end - 1]
        s = Stmt("loop", t.line, tokens=hdr)
        body_s, i2 = _parse_stmt(toks, hdr_end, end)
        s.body = [body_s] if body_s else []
        return s, i2
    if text == "do":
        body_s, i2 = _parse_stmt(toks, i + 1, end)
        # while ( cond ) ;
        if i2 < end and toks[i2].text == "while":
            hdr_end = _match_forward(toks, i2 + 1, end)
            hdr = toks[i2 + 2:hdr_end - 1]
            i2 = _skip_to_semi(toks, hdr_end, end)
        else:
            hdr = []
        s = Stmt("loop", t.line, tokens=hdr)
        s.body = [body_s] if body_s else []
        return s, i2
    if text == "switch":
        hdr_end = _match_forward(toks, i + 1, end)
        hdr = toks[i + 2:hdr_end - 1]
        s = Stmt("switch", t.line, tokens=hdr)
        if hdr_end < end and toks[hdr_end].text == "{":
            close = _match_forward(toks, hdr_end, end)
            s.body = _parse_stmts(toks, hdr_end + 1, close - 1)
            return s, close
        return s, hdr_end
    if text == "return":
        expr, i2 = _collect_until_semi(toks, i + 1, end)
        return Stmt("return", t.line, tokens=expr), i2
    if text in ("break", "continue"):
        return Stmt(text, t.line), _skip_to_semi(toks, i, end)
    if text == "try":
        body_s, i2 = _parse_stmt(toks, i + 1, end)
        s = Stmt("block", t.line)
        s.body = [body_s] if body_s else []
        while i2 < end and toks[i2].text == "catch":
            hdr_end = _match_forward(toks, i2 + 1, end)
            catch_s, i2 = _parse_stmt(toks, hdr_end, end)
            if catch_s:
                s.body.append(catch_s)
        return s, i2

    expr, i2 = _collect_until_semi(toks, i, end)
    if i2 == i:  # stray closer; bail out of this region
        return None, i + 1
    return Stmt("simple", t.line, tokens=expr), i2


def parse_file(rel, text):
    """Parse ``text`` (contents of repo file ``rel``) into a FileIR."""
    return _Parser(rel, text).parse()
