"""The checks, run over the ir.py IR.

Each check is a function ``check_*(files) -> [Finding]`` where
``files`` is the full list of FileIRs (global context: call graphs and
include graphs span files).  Suppression filtering happens in the
driver, so checks report everything they see.

Rule ids (one firing fixture each under tools/analyze/fixtures/).
Token rules, whole identifiers, includes and pragmas:

  determinism-unordered     std::unordered_map/set/multimap/multiset
                            outside src/harness (iteration order is
                            address-dependent)
  determinism-std-random    std::<random> engines/distributions outside
                            src/harness (sequences are implementation-
                            defined; draw from sim/rng.hpp)
  event-core-priority-queue std::priority_queue or a raw heap algorithm
                            outside src/sim (the (when, seq) dispatch
                            contract lives in EventQueue)
  header-pragma-once        a header without #pragma once
  header-using-namespace    `using namespace` in a header
  include-relative          #include "../..." (use root-relative paths)

Semantic rules:

  pooled-use-after-release  use of a SlabPool/IoOpPool/
                            DeferredIssue handle on a path after its
                            release/deallocate/recycle
  pooled-escape             pooled handle stored into a growing
                            heap-owned container
  hot-path-alloc            operator new / make_unique / make_shared
                            reachable from a DECLUST_HOT_PATH root
  hot-path-growth           container growth calls reachable from a
                            hot root
  hot-path-function         std::function conversion/copy reachable
                            from a hot root
  determinism-taint         wall-clock or unseeded random source
                            (std::chrono, clocks, time(), clock(),
                            rand(), random_device, ...) or an alias of
                            one, outside src/harness
  lock-discipline           a StripeLockTable acquire whose
                            continuation closure contains no release,
                            or a straight-line double release
  seed-isolation            seed derivation (seed_seq, seed
                            arithmetic, the splitmix64 constants, or a
                            re-definition of the derivation helpers)
                            outside src/sim/seed.hpp
  ec-isolation              SIMD intrinsics / cpu probes / aligned
                            allocation outside src/ec, directly or via
                            the transitive include graph
  transitive-include        using a repo header's symbol while only
                            including that header transitively
  iostatus-discipline       an IoStatus completion parameter that never
                            reaches a worseStatus fan-in, continuation,
                            or explicit check before the op is released
                            back to its pool (or is overwritten first)
"""

import posixpath
import re
from collections import namedtuple

from .ir import iter_stmts

Finding = namedtuple("Finding", "rel line rule message")

ALL_RULES = (
    "determinism-unordered",
    "determinism-std-random",
    "event-core-priority-queue",
    "header-pragma-once",
    "header-using-namespace",
    "include-relative",
    "pooled-use-after-release",
    "pooled-escape",
    "hot-path-alloc",
    "hot-path-growth",
    "hot-path-function",
    "determinism-taint",
    "lock-discipline",
    "seed-isolation",
    "ec-isolation",
    "transitive-include",
    "iostatus-discipline",
)

# -- shared token helpers ----------------------------------------------

Call = namedtuple("Call", "name recv args line")

_KEYWORD_CALLS = {
    "if", "for", "while", "switch", "sizeof", "alignof", "decltype",
    "static_assert", "return", "catch", "noexcept", "assert",
}


def _match(tokens, i):
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def stmt_calls(stmt):
    """All calls in a statement's tokens: name, receiver chain, args."""
    toks = stmt.tokens
    n = len(toks)
    out = []
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text in _KEYWORD_CALLS:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        # Receiver chain: a.b->c.name( ... ) / A::name( ... )
        recv = []
        m = i
        while m - 2 >= 0 and toks[m - 1].text in (".", "->", "::") and \
                toks[m - 2].kind == "id":
            recv.insert(0, toks[m - 2].text)
            m -= 2
        close = _match(toks, i + 1)
        args = []
        start = i + 2
        depth = 0
        for j in range(i + 2, close + 1):
            tt = toks[j].text if j < close else ","
            if j < close and tt in "([{":
                depth += 1
            elif j < close and tt in ")]}":
                depth -= 1
            elif (tt == "," and depth == 0) or j == close:
                piece = [x.text for x in toks[start:j]]
                if piece:
                    args.append(piece)
                start = j + 1
        out.append(Call(t.text, recv, args, t.line))
    return out


def _ids(stmt):
    return [t for t in stmt.tokens if t.kind == "id"]


# -- check 1: pooled-handle lifetime -----------------------------------

_POOL_RECV = re.compile(r"(?:[Pp]ool|^ops_$|^bufs?_$|^buffers_$)")
_RELEASE_METHODS = {"release", "deallocate", "recycle"}
_ACQUIRE_METHODS = {"acquire", "allocate"}
_POOLED_CLASSES = {"IoOp", "DeferredIssue"}
_CONTAINER_GROWTH = {"push_back", "emplace_back", "insert", "emplace",
                     "push", "assign"}


def _is_pool_recv(recv):
    return bool(recv) and bool(_POOL_RECV.search(recv[-1]))


def _assignment_lhs(stmt):
    """Variable assigned/declared by a top-level '=' in the statement."""
    toks = stmt.tokens
    depth = 0
    for i, t in enumerate(toks):
        tt = t.text
        if tt in "([{":
            depth += 1
        elif tt in ")]}":
            depth -= 1
        elif tt == "=" and depth == 0:
            for j in range(i - 1, -1, -1):
                if toks[j].kind == "id":
                    return toks[j].text
                if toks[j].text in ("*", "&", "const"):
                    continue
                break
            return None
    return None


def check_pooled_lifetime(files):
    findings = []
    for fir in files:
        for fn in fir.functions:
            if not fn.has_body:
                continue
            pooled = {name for types, name in fn.params
                      if name and set(types) & _POOLED_CLASSES}
            findings.extend(_walk_lifetime(fir, fn.body, pooled,
                                           set())[2])
    return findings


def _stmt_effects(fir, stmt, pooled, released, findings):
    """Process one non-compound statement: uses first, then effects."""
    calls = stmt_calls(stmt)
    release_args = set()
    for c in calls:
        if c.name in _RELEASE_METHODS and _is_pool_recv(c.recv):
            for a in c.args:
                if len(a) == 1:
                    release_args.add(a[0])

    # Use-after-release: any released handle named in this statement,
    # except as the destination of a fresh re-acquire.
    lhs = _assignment_lhs(stmt)
    reacquired = None
    for c in calls:
        if c.name in _ACQUIRE_METHODS and _is_pool_recv(c.recv) and lhs:
            reacquired = lhs
    for t in _ids(stmt):
        v = t.text
        if v in released and v != reacquired:
            findings.append(Finding(
                fir.rel, t.line, "pooled-use-after-release",
                "'%s' used after being released to its pool on this "
                "path (release happened earlier in this function)"
                % v))
            released.discard(v)  # one finding per release edge
    if reacquired:
        released.discard(reacquired)
        pooled.add(reacquired)
    elif lhs and lhs in released:
        # Reassigned from something else: no longer the stale handle.
        released.discard(lhs)

    # Escape of a pooled handle into a growing container.
    for c in calls:
        if c.name in _CONTAINER_GROWTH and not _is_pool_recv(c.recv):
            for a in c.args:
                if len(a) == 1 and a[0] in pooled:
                    findings.append(Finding(
                        fir.rel, c.line, "pooled-escape",
                        "pooled handle '%s' stored into container "
                        "'%s' via %s() — pooled lifetimes must not "
                        "escape into heap-owned storage"
                        % (a[0], ".".join(c.recv) or "<expr>", c.name)))

    released |= release_args


def _walk_lifetime(fir, stmts, pooled, released):
    """Returns (released', terminated, findings)."""
    findings = []
    released = set(released)
    pooled = set(pooled)
    for stmt in stmts:
        k = stmt.kind
        if k in ("simple", "return"):
            _stmt_effects(fir, stmt, pooled, released, findings)
            if k == "return":
                return released, True, findings
        elif k in ("break", "continue"):
            return released, True, findings
        elif k == "block":
            released, term, f = _walk_lifetime(fir, stmt.body, pooled,
                                               released)
            findings.extend(f)
            if term:
                return released, True, findings
        elif k == "if":
            _stmt_effects(fir, stmt, pooled, released, findings)
            r1, t1, f1 = _walk_lifetime(fir, stmt.then_body, pooled,
                                        released)
            r2, t2, f2 = _walk_lifetime(fir, stmt.else_body, pooled,
                                        released)
            findings.extend(f1)
            findings.extend(f2)
            if t1 and t2 and stmt.else_body:
                return released, True, findings
            merged = set(released)
            if not t1:
                merged |= r1
            if not t2:
                merged |= r2
            released = merged
        elif k in ("loop", "switch"):
            _stmt_effects(fir, stmt, pooled, released, findings)
            r1, _t, f1 = _walk_lifetime(fir, stmt.body, pooled,
                                        released)
            findings.extend(f1)
            released |= r1
    return released, False, findings


# -- checks 2: hot-path closure ----------------------------------------


def _function_index(files):
    index = {}
    for fir in files:
        for fn in fir.functions:
            index.setdefault(fn.name, []).append((fir, fn))
    return index


def _fn_refs(fn, universe):
    refs = set()
    for stmt in iter_stmts(fn.body):
        for t in stmt.tokens:
            if t.kind == "id" and t.text in universe:
                refs.add(t.text)
    refs.discard(fn.name)
    return refs


def _is_ctor_dtor(fn):
    """Constructors/destructors are bring-up/tear-down, never hot."""
    if fn.name.startswith("~"):
        return True
    parts = fn.qual.split("::")
    return len(parts) >= 2 and parts[-1] == parts[-2]


def _assoc_header(rel):
    """foo.cpp's associated header foo.hpp (or None)."""
    for ext in (".cpp", ".cc"):
        if rel.endswith(ext):
            return rel[:-len(ext)] + ".hpp"
    return None


def hot_closure(files):
    """Map definition key (rel, line) -> (FileIR, FunctionIR, root).

    Reachability is by NAME reference (direct calls plus named
    continuation handoffs like `&stepFn`), but an edge from caller to a
    candidate definition only counts when the caller's file can
    actually see it: the definition's file — or its associated header —
    must be in the caller's transitive include set. That include-graph
    gate is what keeps common method names (`add`, `set`, `push`) from
    dragging unrelated subsystems into the hot closure.
    """
    index = _function_index(files)
    universe = set(index)
    graph = _include_graph(files)
    trans = {fir.rel: _transitive(graph, fir.rel) for fir in files}

    def eligible(caller_rel, def_rel):
        if def_rel == caller_rel:
            return True
        t = trans.get(caller_rel, set())
        if def_rel in t:
            return True
        assoc = _assoc_header(def_rel)
        return assoc is not None and (assoc == caller_rel or assoc in t)

    reached = {}
    work = []

    def reach(name, from_rel, root):
        for dfir, dfn in index.get(name, ()):
            if not dfn.has_body or _is_ctor_dtor(dfn):
                continue
            if not eligible(from_rel, dfir.rel):
                continue
            key = (dfir.rel, dfn.line)
            if key not in reached:
                reached[key] = (dfir, dfn, root)
                work.append(key)

    # Seed: every definition of an annotated name that the annotation
    # site's file can see. Annotating a bodiless declaration (a virtual
    # root like Scheduler::push) thereby seeds its implementations.
    for fir in files:
        for fn in fir.functions:
            if fn.hot_path:
                reach(fn.name, fir.rel, fn.name)
    while work:
        dfir, dfn, root = reached[work.pop()]
        for ref in sorted(_fn_refs(dfn, universe)):
            reach(ref, dfir.rel, root)
    return reached


_GROWTH_METHODS = {"push_back", "emplace_back", "resize", "reserve",
                   "assign"}


def check_hot_path(files):
    findings = []
    reached = hot_closure(files)
    if not reached:
        return findings
    for key in sorted(reached):
        fir, fn, root = reached[key]
        via = "" if fn.name == root else \
            " (reachable from hot root '%s')" % root
        for stmt in iter_stmts(fn.body):
            toks = stmt.tokens
            n = len(toks)
            for i, t in enumerate(toks):
                if t.kind != "id":
                    continue
                nxt = toks[i + 1].text if i + 1 < n else ""
                prv = toks[i - 1].text if i else ""
                if t.text == "new" and nxt != "(":
                    findings.append(Finding(
                        fir.rel, t.line, "hot-path-alloc",
                        "operator new in hot-path function '%s'%s "
                        "— pool it or hoist it to set-up"
                        % (fn.qual, via)))
                elif t.text in ("make_unique", "make_shared"):
                    findings.append(Finding(
                        fir.rel, t.line, "hot-path-alloc",
                        "%s in hot-path function '%s'%s"
                        % (t.text, fn.qual, via)))
                elif t.text == "function" and prv == "::" and \
                        i >= 2 and toks[i - 2].text == "std":
                    findings.append(Finding(
                        fir.rel, t.line, "hot-path-function",
                        "std::function conversion in hot-path "
                        "function '%s'%s — use EventCallback or a "
                        "raw {fn, ctx} pair" % (fn.qual, via)))
                elif t.text in _GROWTH_METHODS and nxt == "(" and \
                        prv in (".", "->"):
                    findings.append(Finding(
                        fir.rel, t.line, "hot-path-growth",
                        ".%s() in hot-path function '%s'%s — "
                        "pre-size the container or annotate the "
                        "warm-up" % (t.text, fn.qual, via)))
    return findings


# -- check 3: determinism taint ----------------------------------------

_CLOCK_NAMES = {"system_clock", "steady_clock", "high_resolution_clock"}
_SOURCE_NAMES = {"random_device", "gettimeofday", "clock_gettime",
                 "__rdtsc", "_rdtsc", "timespec_get"}
# time(nullptr), time(NULL), time(0), time(): the argument tells the C
# library wall clock apart from a function that merely is named time.
_TIME_ARGS = {"nullptr", "NULL", "0", ")"}


def _alias_taint(fir):
    """Alias names whose target mentions a nondeterministic source."""
    tainted = set()
    banned = _CLOCK_NAMES | {"chrono", "random_device"}
    for alias, target in fir.aliases.items():
        if banned & set(target):
            tainted.add(alias)
    return tainted


def _source_call(name, prev, nxt, after):
    """A free call of a C library clock or rand; member calls
    (`x.rand()`, `p->clock()`) are someone's own method."""
    if nxt != "(" or prev in (".", "->"):
        return False
    return name in ("rand", "srand", "clock") or \
        (name == "time" and after in _TIME_ARGS)


def check_determinism(files):
    findings = []
    for fir in files:
        if fir.rel.startswith("src/harness/"):
            continue
        tainted = _alias_taint(fir)
        alias_lines = {fir.defined_types.get(a) for a in tainted}
        for name, line, prev, nxt, after in fir.identifiers:
            if name in _CLOCK_NAMES or name in _SOURCE_NAMES or \
                    (name == "chrono" and prev == "::"):
                findings.append(Finding(
                    fir.rel, line, "determinism-taint",
                    "nondeterministic source '%s' in deterministic "
                    "simulation code (results must replay bit-exact; "
                    "draw from sim/rng.hpp)" % name))
            elif _source_call(name, prev, nxt, after):
                findings.append(Finding(
                    fir.rel, line, "determinism-taint",
                    "wall-clock or unseeded %s() in deterministic "
                    "simulation code" % name))
            elif name in tainted and line not in alias_lines and \
                    prev not in (".", "->"):
                findings.append(Finding(
                    fir.rel, line, "determinism-taint",
                    "use of '%s', an alias of a nondeterministic "
                    "clock/source (aliasing does not launder "
                    "nondeterminism)" % name))
    return findings


# -- check 4: lock discipline ------------------------------------------

_LOCK_RECV = re.compile(r"[Ll]ock")


def _is_lock_recv(recv):
    return bool(recv) and bool(_LOCK_RECV.search(recv[-1]))


def check_lock_discipline(files):
    findings = []
    index = _function_index(files)
    universe = set(index)
    # Precompute per-function ref sets and "contains lock release".
    releases = set()
    refs = {}
    for fir in files:
        for fn in fir.functions:
            if not fn.has_body:
                continue
            refs.setdefault(fn.name, set()).update(
                _fn_refs(fn, universe))
            for stmt in iter_stmts(fn.body):
                for c in stmt_calls(stmt):
                    if c.name == "release" and _is_lock_recv(c.recv):
                        releases.add(fn.name)

    def chain_has_release(start):
        seen = {start}
        work = [start]
        while work:
            cur = work.pop()
            if cur in releases:
                return True
            for ref in refs.get(cur, ()):
                if ref not in seen:
                    seen.add(ref)
                    work.append(ref)
        return False

    for fir in files:
        for fn in fir.functions:
            if not fn.has_body:
                continue
            acquires = []
            for stmt in iter_stmts(fn.body):
                for c in stmt_calls(stmt):
                    if c.name in ("acquire", "tryAcquire") and \
                            _is_lock_recv(c.recv):
                        acquires.append(c)
            if acquires and not chain_has_release(fn.name):
                for c in acquires:
                    findings.append(Finding(
                        fir.rel, c.line, "lock-discipline",
                        "stripe-lock acquire in '%s' whose "
                        "continuation chain contains no release — the "
                        "critical section can never end" % fn.qual))
            # Straight-line double release of the same stripe.
            findings.extend(_double_release_scan(fir, fn.body))
    return findings


def _double_release_scan(fir, stmts):
    findings = []
    seen = set()
    for stmt in stmts:
        if stmt.kind in ("if", "loop", "switch", "block"):
            for sub in (stmt.body, stmt.then_body, stmt.else_body):
                findings.extend(_double_release_scan(fir, sub))
            seen.clear()
            continue
        for c in stmt_calls(stmt):
            if c.name in ("acquire", "tryAcquire") and \
                    _is_lock_recv(c.recv):
                seen.clear()
            elif c.name == "release" and _is_lock_recv(c.recv):
                sig = (tuple(c.recv), tuple(tuple(a) for a in c.args))
                if sig in seen:
                    findings.append(Finding(
                        fir.rel, c.line, "lock-discipline",
                        "double release of stripe lock '%s(%s)' on a "
                        "straight-line path"
                        % (".".join(c.recv),
                           ", ".join(" ".join(a) for a in c.args))))
                seen.add(sig)
    return findings


# -- check 5: seed / ec isolation (include-graph checks) ---------------

_SEED_HELPER_DEFS = {"splitmix64", "splitmixNext", "mixSeed",
                     "taggedSeed", "shardSeed"}
_SEED_HOME = "src/sim/seed.hpp"
_SPLITMIX_CONSTANTS = {"0x9e3779b97f4a7c15", "0xbf58476d1ce4e5b9",
                       "0x94d049bb133111eb"}
_SEED_NAME = re.compile(r"[Ss]eed")
_INTRIN_ID = re.compile(r"^(?:_mm(?:256|512)?_\w+|__m(?:128|256|512)"
                        r"[di]?|__builtin_cpu_supports|aligned_alloc|"
                        r"posix_memalign|memalign|align_val_t)$")
_INTRIN_HEADER = re.compile(r"(?:\w*mmintrin|intrin|x86intrin|cpuid)\.h$")


def _norm_const(text):
    return text.lower().replace("'", "").rstrip("ul")


def _in_scope(rel):
    """Files subject to the src-wide rules (fixtures emulate src)."""
    return rel.startswith("src/") or "/fixtures/" in rel


def check_seed_isolation(files):
    findings = []
    for fir in files:
        if fir.rel == _SEED_HOME or not _in_scope(fir.rel):
            continue
        for fn in fir.functions:
            if fn.name in _SEED_HELPER_DEFS and fn.has_body:
                findings.append(Finding(
                    fir.rel, fn.line, "seed-isolation",
                    "re-definition of seed-derivation helper '%s' "
                    "outside sim/seed.hpp — one derivation point "
                    "keeps stream splits auditable" % fn.name))
            if not fn.has_body:
                continue
            for stmt in iter_stmts(fn.body):
                toks = stmt.tokens
                n = len(toks)
                for i, t in enumerate(toks):
                    if t.kind == "num" and \
                            _norm_const(t.text) in _SPLITMIX_CONSTANTS:
                        findings.append(Finding(
                            fir.rel, t.line, "seed-isolation",
                            "splitmix64 mixing constant outside "
                            "sim/seed.hpp — derive sub-seeds through "
                            "splitmix64/mixSeed/taggedSeed/shardSeed"))
                    if t.kind == "id" and t.text == "seed_seq":
                        findings.append(Finding(
                            fir.rel, t.line, "seed-isolation",
                            "std::seed_seq outside sim/seed.hpp"))
                    if t.kind == "id" and _SEED_NAME.search(t.text):
                        nxt = toks[i + 1].text if i + 1 < n else ""
                        prv = toks[i - 1].text if i else ""
                        if nxt == "(" or prv in (".", "->"):
                            continue  # call of a sanctioned helper
                        if nxt in ("^", "*") or prv in ("^", "*") or \
                                (nxt == "+" and i + 2 < n and
                                 toks[i + 2].kind == "num"):
                            findings.append(Finding(
                                fir.rel, t.line, "seed-isolation",
                                "ad-hoc seed arithmetic on '%s' — "
                                "xor/multiply/salt by hand risks "
                                "silently correlated streams; use "
                                "sim/seed.hpp" % t.text))
    return findings


def _include_graph(files):
    """Resolve each file's direct includes to repo-relative paths."""
    by_rel = {fir.rel for fir in files}
    graph = {}
    for fir in files:
        direct = {}
        for line, text, angled in fir.includes:
            if angled:
                continue
            cands = (posixpath.normpath(posixpath.join(
                         posixpath.dirname(fir.rel), text)),
                     "src/" + text, text)
            for cand in cands:
                if cand in by_rel:
                    direct[cand] = line
                    break
        graph[fir.rel] = direct
    return graph


def _transitive(graph, start):
    seen = set()
    work = list(graph.get(start, {}))
    while work:
        cur = work.pop()
        if cur in seen:
            continue
        seen.add(cur)
        work.extend(graph.get(cur, {}))
    return seen


def check_ec_isolation(files):
    findings = []
    graph = _include_graph(files)
    intrinsic_files = set()
    for fir in files:
        for line, text, _angled in fir.includes:
            if _INTRIN_HEADER.search(text):
                intrinsic_files.add(fir.rel)
                if not fir.rel.startswith("src/ec/"):
                    findings.append(Finding(
                        fir.rel, line, "ec-isolation",
                        "#include <%s> outside src/ec/ — ISA-specific "
                        "code lives in the per-tier kernel TUs; call "
                        "through ec::Kernels" % text))
    for fir in files:
        inside_ec = fir.rel.startswith("src/ec/")
        if not inside_ec:
            for name, line, _prev, _nxt, _after in fir.identifiers:
                if _INTRIN_ID.match(name):
                    findings.append(Finding(
                        fir.rel, line, "ec-isolation",
                        "raw SIMD intrinsic / aligned-alloc '%s' "
                        "outside src/ec/ — dispatch through "
                        "ec::Kernels" % name))
            hit = _transitive(graph, fir.rel) & intrinsic_files
            if hit:
                culprit = sorted(hit)[0]
                line = min(graph[fir.rel].values()) \
                    if graph[fir.rel] else 1
                findings.append(Finding(
                    fir.rel, line, "ec-isolation",
                    "transitively includes '%s', which pulls in raw "
                    "intrinsics headers — the include graph must keep "
                    "ISA headers confined to src/ec/ translation "
                    "units" % culprit))
    return findings


# -- check 6: IoStatus discipline --------------------------------------
#
# Every disk completion hands its continuation an IoStatus. The fan-in
# contract (io_op.hpp) is that each leg folds its status into the op
# (op->status = worseStatus(...), usually via noteStatus) or branches
# on it BEFORE the op goes back to the pool — otherwise a MediumError
# or DiskFailed from one leg of a multi-disk operation silently
# vanishes and the array under-counts faults. The check is linear over
# the pre-order statement walk: the status parameter must be referenced
# (fold, forward to another continuation, or condition) before the
# first pool release on the walk; a plain overwrite of the parameter
# does not count as a reference, it IS the drop.

_OP_RELEASE_HELPERS = {"opRelease"}


def _rhs_ids(stmt):
    """Identifier spellings right of a top-level '=' (empty if none)."""
    toks = stmt.tokens
    depth = 0
    for i, t in enumerate(toks):
        tt = t.text
        if tt in "([{":
            depth += 1
        elif tt in ")]}":
            depth -= 1
        elif tt == "=" and depth == 0:
            return {x.text for x in toks[i + 1:] if x.kind == "id"}
    return set()


def _stmt_releases(calls):
    return [c for c in calls
            if (c.name in _RELEASE_METHODS and _is_pool_recv(c.recv)) or
               (c.name in _OP_RELEASE_HELPERS and not c.recv)]


def check_iostatus_discipline(files):
    findings = []
    for fir in files:
        for fn in fir.functions:
            if not fn.has_body:
                continue
            pending = {name for types, name in fn.params
                       if name and "IoStatus" in types}
            if not pending:
                continue
            for stmt in iter_stmts(fn.body):
                if not pending:
                    break
                names = {t.text for t in stmt.tokens
                         if t.kind == "id"}
                lhs = _assignment_lhs(stmt)
                rhs = _rhs_ids(stmt) if lhs in pending else set()
                for s in sorted(pending & names):
                    if s == lhs and s not in rhs:
                        continue  # pure overwrite: still unconsumed
                    pending.discard(s)
                for c in _stmt_releases(stmt_calls(stmt)):
                    for s in sorted(pending):
                        findings.append(Finding(
                            fir.rel, c.line, "iostatus-discipline",
                            "completion status '%s' dropped: the op is "
                            "released in '%s' before the status reaches "
                            "a worseStatus fold, a continuation, or an "
                            "explicit check — a MediumError on this leg "
                            "would vanish" % (s, fn.qual)))
                    pending.clear()
    return findings


# -- check 7: transitive-include (header hygiene) ----------------------

_COMMON_NAMES = {
    # Too generic to attribute to one header reliably.
    "size", "get", "set", "value", "data", "begin", "end", "empty",
    "main", "test", "size_t", "uint64_t", "int64_t", "uint32_t",
    "int32_t", "uint8_t", "int8_t", "uint16_t", "int16_t",
}


def check_transitive_include(files):
    findings = []
    # Symbol -> unique defining header (types, aliases, free functions).
    defs = {}
    ambiguous = set()

    def add(sym, rel):
        if len(sym) < 4 or sym in _COMMON_NAMES:
            return
        if sym in defs and defs[sym] != rel:
            ambiguous.add(sym)
        else:
            defs[sym] = rel

    for fir in files:
        if not fir.is_header:
            continue
        for sym in fir.defined_types:
            add(sym, fir.rel)
        for sym in fir.defined_macros:
            add(sym, fir.rel)
        for fn in fir.functions:
            if not fn.is_method and not fn.name.startswith("~") and \
                    fn.name != "operator":
                add(fn.name, fir.rel)
    for sym in ambiguous:
        defs.pop(sym, None)

    graph = _include_graph(files)
    for fir in files:
        direct = set(graph.get(fir.rel, {}))
        trans = _transitive(graph, fir.rel)
        indirect_only = trans - direct - {fir.rel}
        if not indirect_only:
            continue
        reported = set()
        for name, line, prev, _nxt, _after in fir.identifiers:
            if prev in (".", "->", "class", "struct", "enum", "union"):
                continue
            home = defs.get(name)
            if home is None or home == fir.rel or \
                    home not in indirect_only:
                continue
            if name in fir.defined_types or name in fir.forward_decls:
                continue
            if home in reported:
                continue
            reported.add(home)
            findings.append(Finding(
                fir.rel, line, "transitive-include",
                "uses '%s' from %s but includes it only transitively "
                "— include what you use so header refactors cannot "
                "silently break this file" % (name, home)))
    return findings


# -- check 8: token rules ---------------------------------------------
#
# Whole-token bans. Comments never reach the identifier stream and
# literals are 'str' tokens, so prose cannot fire them; a directive body
# is not an identifier, so `#include <random>` is not a use of an engine.

_UNORDERED = re.compile(r"^unordered_(?:map|set|multimap|multiset)$")
# Fault injection and the MTTDL campaign sample hazards and error maps;
# <random> sequences are implementation-defined, so a campaign seeded
# on one platform would not replay on another.
_STD_RANDOM = re.compile(
    r"^(?:mt19937(?:_64)?|minstd_rand0?|ranlux(?:24|48)(?:_base)?|"
    r"knuth_b|default_random_engine|subtract_with_carry_engine|"
    r"mersenne_twister_engine|linear_congruential_engine|"
    r"(?:uniform_int|uniform_real|bernoulli|binomial|geometric|"
    r"negative_binomial|poisson|exponential|gamma|weibull|"
    r"extreme_value|normal|lognormal|chi_squared|cauchy|fisher_f|"
    r"student_t|discrete|piecewise_constant|piecewise_linear)"
    r"_distribution)$")
_HEAP_NAMES = {"priority_queue", "make_heap", "push_heap", "pop_heap",
               "sort_heap"}


def check_tokens(files):
    findings = []
    for fir in files:
        deterministic = not fir.rel.startswith("src/harness/")
        outside_event_core = not fir.rel.startswith("src/sim/")
        for name, line, _prev, nxt, _after in fir.identifiers:
            if deterministic and _UNORDERED.match(name):
                findings.append(Finding(
                    fir.rel, line, "determinism-unordered",
                    "unordered container '%s' in simulation code "
                    "(iteration order is address-dependent; use a "
                    "sorted or indexed container)" % name))
            elif deterministic and _STD_RANDOM.match(name):
                findings.append(Finding(
                    fir.rel, line, "determinism-std-random",
                    "std::<random> '%s' in simulation code (sequences "
                    "are implementation-defined and differ across "
                    "platforms; draw from sim/rng.hpp's seeded Rng)"
                    % name))
            elif outside_event_core and name in _HEAP_NAMES:
                findings.append(Finding(
                    fir.rel, line, "event-core-priority-queue",
                    "ad-hoc priority queue '%s' outside src/sim/ (the "
                    "(when, seq) dispatch contract lives in EventQueue; "
                    "schedule through it instead of keeping a second "
                    "pending set)" % name))
            elif fir.is_header and name == "using" and nxt == "namespace":
                findings.append(Finding(
                    fir.rel, line, "header-using-namespace",
                    "`using namespace` in a header leaks into every "
                    "includer"))
        for line, text, angled in fir.includes:
            if not angled and text.startswith(".."):
                findings.append(Finding(
                    fir.rel, line, "include-relative",
                    'parent-relative #include "%s" (use a root-relative '
                    'path, e.g. "sim/time.hpp")' % text))
        if fir.is_header and "once" not in fir.pragmas:
            findings.append(Finding(fir.rel, 1, "header-pragma-once",
                                    "header without #pragma once"))
    return findings


ALL_CHECKS = (
    check_tokens,
    check_pooled_lifetime,
    check_hot_path,
    check_determinism,
    check_lock_discipline,
    check_seed_isolation,
    check_ec_isolation,
    check_iostatus_discipline,
    check_transitive_include,
)


def run_checks(files):
    findings = []
    for check in ALL_CHECKS:
        findings.extend(check(files))
    return findings
