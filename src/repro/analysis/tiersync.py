"""Rule ``tier-sync``: the kernel tier must *transcribe* the python tier.

PR 8's specializing kernel tier (:mod:`repro.core.kernel_gen`) is a
hand-maintained transcription of the pipeline hot loop — the largest
correctness hazard in the tree: an edit to ``core/pipeline.py`` that is
not mirrored in the generator silently diverges the two tiers, and only
the golden digests catch it, at runtime, for the shapes they exercise.

This module machine-checks the transcription *statically*.  The
generator declares, next to its emitters, a ``FRAGMENTS`` table: which
source function each emitter transcribes and the exact **substitution
algebra** relating the two spellings (shape attributes folded to
``KernelKey`` literals, pre-bound helper names, inlined helper bodies,
declared structural rewrites for the restructured regions).  The engine

* parses the python tier (pure AST — the linted tree, never imported),
* executes the *linted* ``core/kernel_gen.py`` and captures each
  emitter's output for the declared representative ``TIERSYNC_KEY``,
* applies the declared substitutions to the source side, normalizes
  both ASTs (``True`` operands folded into ``and`` chains are dropped),
* and reports any residual structural difference as an error carrying a
  unified diff of the two normalized forms, naming both ``file:line``
  sides.

Soundness of the algebra: every declared operation either (a) is a
semantics-preserving rewrite under the key constants (renames, literal
folds), (b) splices the *current* helper body
from the linted tree (``inline`` — so helper edits flow into the
comparison), or (c) is a **concrete rewrite** whose pattern pins the
source text and whose replacement must equal the emitted kernel
(checked by the final comparison), with ``guard`` entries pinning any
helper body the concrete form absorbed.  In every case an unmirrored
edit to either tier breaks a pattern match, a guard, or the final
comparison — there is no silent path through.

Substitution operations (applied in declared order to the source side):

``("rename", old, new)``
    Rename every ``Name`` occurrence.
``("expr", old, new)``
    Structural expression rewrite.
``("stmt", pattern, replacement)``
    Consecutive-statement rewrite; ``__REST__``/``__BODY__`` bind
    statement runs.  An empty replacement deletes (hoist elision).
``("inline", (relpath, qualname), pattern, template, opts)``
    Replace the matched call site with ``template``, whose
    ``__INLINE__`` marker becomes the helper's current body with its
    parameters substituted (``opts["bind"]``: parameter -> expression)
    or assigned in a prelude (``opts["assign"]``: parameter ->
    expression), and each ``return`` handled by the positional
    ``opts["returns"]`` spec (``"continue"``, ``"delete"``,
    ``"else-rest"``, or ``"stmts:<code>"``).
``("unroll", var, iterations)``
    Unroll the ``for <var> in ...`` loop; each iteration dict maps
    names to replacement expressions for that copy.
``("guard", relpath, qualname, expected)``
    Pin a helper's normalized body text — the declared license for a
    concrete rewrite that absorbed it.  A mismatch is the
    "undeclared substitution" error.

The rule also exposes :func:`generated_kernels` — one compiled
representative kernel per coverage class — consumed by
``hot-path-hygiene`` so *emitted* loops inherit the fast-path
discipline, not just the emitters.
"""

from __future__ import annotations

import ast
import copy
import difflib
import importlib.util
import os
import textwrap
from typing import Dict, List, Optional, Sequence, Tuple

from .astutil import iter_functions
from .model import Finding, LintContext
from .registry import Rule, rule

KERNEL_GEN = "core/kernel_gen.py"

#: Cap on the unified-diff excerpt embedded in a finding message.
_DIFF_LINES = 80


class SubstitutionError(Exception):
    """A declared substitution failed to apply (tier drift signal)."""


class KernelGenError(Exception):
    """The linted kernel generator could not be executed or queried."""


# ------------------------------------------------------------------ parsing

def parse_stmts(code: str) -> List[ast.stmt]:
    return ast.parse(textwrap.dedent(code)).body


def parse_expr(code: str) -> ast.expr:
    return ast.parse(code, mode="eval").body


_WILDCARD_PREFIXES = ("__REST", "__BODY", "__STMTS")


def _stmt_wildcard(stmt: ast.stmt) -> Optional[str]:
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Name) \
            and stmt.value.id.startswith(_WILDCARD_PREFIXES):
        return stmt.value.id
    return None


def _dump(node) -> str:
    if isinstance(node, list):
        return "; ".join(_dump(item) for item in node)
    return ast.dump(node, annotate_fields=False, include_attributes=False)


# ----------------------------------------------------------------- matching

_SKIP_FIELDS = ("ctx", "type_comment", "type_ignores")
_STMT_LIST_FIELDS = ("body", "orelse", "finalbody")


def _match(pattern, node, bindings: Dict) -> bool:
    if type(pattern) is not type(node):
        return False
    if isinstance(pattern, ast.Constant):
        return pattern.value == node.value \
            and type(pattern.value) is type(node.value)
    for field in pattern._fields:
        if field in _SKIP_FIELDS:
            continue
        pv = getattr(pattern, field, None)
        nv = getattr(node, field, None)
        if isinstance(pv, list):
            if not isinstance(nv, list):
                return False
            if field in _STMT_LIST_FIELDS and \
                    (not pv or isinstance(pv[0], ast.stmt)):
                if not _match_seq(pv, nv, bindings):
                    return False
            else:
                if len(pv) != len(nv):
                    return False
                for p, n in zip(pv, nv):
                    if isinstance(p, ast.AST):
                        if not _match(p, n, bindings):
                            return False
                    elif p != n:
                        return False
        elif isinstance(pv, ast.AST):
            if not isinstance(nv, ast.AST) or not _match(pv, nv, bindings):
                return False
        elif pv != nv:
            return False
    return True


def _match_seq(patterns: Sequence[ast.stmt], stmts: Sequence[ast.stmt],
               bindings: Dict) -> bool:
    consumed = _match_seq_prefix(patterns, stmts, bindings)
    return consumed is not None and consumed == len(stmts)


def _match_seq_prefix(patterns: Sequence[ast.stmt],
                      stmts: Sequence[ast.stmt],
                      bindings: Dict) -> Optional[int]:
    """Match ``patterns`` against a prefix of ``stmts``; consumed count."""
    if not patterns:
        return 0
    head = patterns[0]
    wildcard = _stmt_wildcard(head)
    if wildcard is not None:
        for n in range(len(stmts), -1, -1):     # greedy first
            trial = dict(bindings)
            trial[wildcard] = list(stmts[:n])
            rest = _match_seq_prefix(patterns[1:], stmts[n:], trial)
            if rest is not None:
                bindings.clear()
                bindings.update(trial)
                return n + rest
        return None
    if not stmts:
        return None
    trial = dict(bindings)
    if _match(head, stmts[0], trial):
        rest = _match_seq_prefix(patterns[1:], stmts[1:], trial)
        if rest is not None:
            bindings.clear()
            bindings.update(trial)
            return 1 + rest
    return None


# ------------------------------------------------------------- substitution

def _substitute(node, bindings: Dict):
    """Deep copy with statement wildcards expanded from ``bindings``."""
    if not isinstance(node, ast.AST):
        return node
    fields = {}
    for field, value in ast.iter_fields(node):
        if isinstance(value, list):
            if field in _STMT_LIST_FIELDS and \
                    (not value or isinstance(value[0], ast.stmt)):
                fields[field] = _substitute_stmts(value, bindings)
            else:
                fields[field] = [
                    _substitute(item, bindings)
                    if isinstance(item, ast.AST) else item
                    for item in value]
        elif isinstance(value, ast.AST):
            fields[field] = _substitute(value, bindings)
        else:
            fields[field] = value
    return type(node)(**fields)


def _substitute_stmts(stmts: Sequence[ast.stmt],
                      bindings: Dict) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    for stmt in stmts:
        wildcard = _stmt_wildcard(stmt)
        if wildcard is not None and wildcard in bindings:
            out.extend(copy.deepcopy(bindings[wildcard]))
        else:
            out.append(_substitute(stmt, bindings))
    return out


def _walk_stmt_lists(stmts: List[ast.stmt], fn) -> None:
    """Call ``fn`` on every statement list reachable from ``stmts``."""
    fn(stmts)
    for stmt in stmts:
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                _walk_stmt_lists(sub, fn)
        for handler in getattr(stmt, "handlers", None) or []:
            _walk_stmt_lists(handler.body, fn)


def apply_rename(stmts: List[ast.stmt], old: str, new: str) -> int:
    count = 0
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == old:
                node.id = new
                count += 1
    return count


def apply_expr_rewrite(stmts: List[ast.stmt], pattern: ast.expr,
                       replacement: ast.expr) -> int:
    count = 0

    def visit(node: ast.AST) -> None:
        nonlocal count
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.AST):
                if isinstance(value, ast.expr):
                    bindings: Dict = {}
                    if _match(pattern, value, bindings):
                        new = _substitute(replacement, bindings)
                        if hasattr(value, "ctx") and hasattr(new, "ctx"):
                            new.ctx = value.ctx
                        setattr(node, field, new)
                        count += 1
                        continue
                visit(value)
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    if not isinstance(item, ast.AST):
                        continue
                    if isinstance(item, ast.expr):
                        bindings = {}
                        if _match(pattern, item, bindings):
                            new = _substitute(replacement, bindings)
                            if hasattr(item, "ctx") and hasattr(new, "ctx"):
                                new.ctx = item.ctx
                            value[index] = new
                            count += 1
                            continue
                    visit(item)

    for stmt in stmts:
        visit(stmt)
    return count


def apply_stmt_rewrite(stmts: List[ast.stmt],
                       pattern: Sequence[ast.stmt],
                       replacement: Sequence[ast.stmt]) -> int:
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        index = 0
        while index < len(block):
            bindings: Dict = {}
            consumed = _match_seq_prefix(pattern, block[index:], bindings)
            if consumed is not None and consumed > 0:
                new = _substitute_stmts(replacement, bindings)
                block[index:index + consumed] = new
                count += 1
                index += len(new)
            else:
                index += 1

    _walk_stmt_lists(stmts, scan)
    return count


# -------------------------------------------------------------- inline op

def _collect_returns(stmts: Sequence[ast.stmt],
                     out: List[ast.Return]) -> None:
    for stmt in stmts:
        if isinstance(stmt, ast.Return):
            out.append(stmt)
            continue
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                _collect_returns(sub, out)
        for handler in getattr(stmt, "handlers", None) or []:
            _collect_returns(handler.body, out)


def _return_stmts(spec: str) -> List[ast.stmt]:
    if spec == "continue":
        return [ast.Continue()]
    if spec == "delete":
        return []
    if spec.startswith("stmts:"):
        return parse_stmts(spec[len("stmts:"):])
    raise SubstitutionError(f"unknown return spec {spec!r}")


def _apply_return_specs(stmts: List[ast.stmt],
                        specs: Dict[int, str]) -> List[ast.stmt]:
    out: List[ast.stmt] = []
    index = 0
    while index < len(stmts):
        stmt = stmts[index]
        if isinstance(stmt, ast.Return):
            spec = specs.get(id(stmt))
            if spec is None:
                raise SubstitutionError(
                    "inline return without a declared spec")
            out.extend(_return_stmts(spec))
            index += 1
            continue
        tail = None
        if isinstance(stmt, ast.If) and stmt.body \
                and isinstance(stmt.body[-1], ast.Return) \
                and specs.get(id(stmt.body[-1])) == "else-rest":
            # ``return`` at the tail of an if body: drop it before the
            # recursion below sees it; the rest of this block becomes
            # the else branch (guard nesting).
            tail = stmt.body[-1]
            stmt.body = stmt.body[:-1] or [ast.Pass()]
        for field in _STMT_LIST_FIELDS:
            sub = getattr(stmt, field, None)
            if sub:
                setattr(stmt, field, _apply_return_specs(sub, specs))
        if tail is not None:
            if stmt.orelse:
                raise SubstitutionError(
                    "else-rest return spec needs an empty else branch")
            stmt.orelse = _apply_return_specs(list(stmts[index + 1:]), specs)
            out.append(stmt)
            return out
        out.append(stmt)
        index += 1
    return out


def _function_body(tree: ast.Module, qualname: str) -> List[ast.stmt]:
    for name, node in iter_functions(tree):
        if name == qualname:
            body = copy.deepcopy(node.body)
            if body and isinstance(body[0], ast.Expr) \
                    and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                body = body[1:]
            return body
    raise SubstitutionError(f"helper {qualname!r} not found")


def apply_inline(ctx: LintContext, stmts: List[ast.stmt],
                 target: Tuple[str, str], pattern_code: str,
                 template_code: str, opts: Dict) -> int:
    relpath, qualname = target
    source = ctx.file(relpath)
    if source is None:
        raise SubstitutionError(f"inline source module {relpath!r} not found")
    body = _function_body(source.tree, qualname)

    for param, expr_code in (opts.get("bind") or {}).items():
        apply_expr_rewrite(body, ast.Name(id=param, ctx=ast.Load()),
                           parse_expr(expr_code))
    prelude = [ast.parse(f"{param} = {expr_code}").body[0]
               for param, expr_code in (opts.get("assign") or {}).items()]

    returns: List[ast.Return] = []
    _collect_returns(body, returns)
    specs = list(opts.get("returns") or ())
    if len(returns) != len(specs):
        raise SubstitutionError(
            f"inline of {qualname!r}: helper has {len(returns)} return "
            f"statements but {len(specs)} specs are declared — the helper "
            "body changed; update the fragment declaration")
    spec_of = {id(node): spec for node, spec in zip(returns, specs)}
    body = _apply_return_specs(body, spec_of)
    body = prelude + body

    pattern = parse_stmts(pattern_code)
    template = parse_stmts(template_code)
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        index = 0
        while index < len(block):
            bindings: Dict = {}
            consumed = _match_seq_prefix(pattern, block[index:], bindings)
            if consumed is not None and consumed > 0:
                spliced = _substitute_stmts(
                    copy.deepcopy(body), bindings)
                marked: List[ast.stmt] = []
                for stmt in _substitute_stmts(template, bindings):
                    marked.append(stmt)
                new: List[ast.stmt] = []

                def expand(seq: List[ast.stmt]) -> List[ast.stmt]:
                    result: List[ast.stmt] = []
                    for stmt in seq:
                        if isinstance(stmt, ast.Expr) \
                                and isinstance(stmt.value, ast.Name) \
                                and stmt.value.id == "__INLINE__":
                            result.extend(copy.deepcopy(spliced))
                            continue
                        for field in _STMT_LIST_FIELDS:
                            sub = getattr(stmt, field, None)
                            if sub:
                                setattr(stmt, field, expand(sub))
                        result.append(stmt)
                    return result

                new = expand(marked)
                block[index:index + consumed] = new
                count += 1
                index += len(new)
            else:
                index += 1

    _walk_stmt_lists(stmts, scan)
    return count


def apply_unroll(stmts: List[ast.stmt], var: str,
                 iterations: Sequence[Dict[str, str]]) -> int:
    count = 0

    def scan(block: List[ast.stmt]) -> None:
        nonlocal count
        for index, stmt in enumerate(block):
            if isinstance(stmt, ast.For) \
                    and isinstance(stmt.target, ast.Name) \
                    and stmt.target.id == var:
                copies: List[ast.stmt] = []
                for subs in iterations:
                    body = copy.deepcopy(stmt.body)
                    for name, expr_code in subs.items():
                        apply_expr_rewrite(
                            body, ast.Name(id=name, ctx=ast.Load()),
                            parse_expr(expr_code))
                    copies.extend(body)
                block[index:index + 1] = copies
                count += 1
                return

    _walk_stmt_lists(stmts, scan)
    return count


# ---------------------------------------------------------- normalization

class _Normalizer(ast.NodeTransformer):
    """Drop ``True`` operands from ``and`` chains (``False`` from ``or``):
    the residue of folding a key flag to a literal inside a condition."""

    def visit_BoolOp(self, node: ast.BoolOp):
        self.generic_visit(node)
        neutral = isinstance(node.op, ast.And)
        node.values = [value for value in node.values
                       if not (isinstance(value, ast.Constant)
                               and value.value is neutral)]
        return node


def normalize(stmts: Sequence[ast.stmt]) -> List[ast.stmt]:
    module = ast.Module(body=copy.deepcopy(list(stmts)), type_ignores=[])
    module = _Normalizer().visit(module)
    ast.fix_missing_locations(module)
    return module.body


def normalized_text(stmts: Sequence[ast.stmt]) -> str:
    module = ast.Module(body=list(stmts), type_ignores=[])
    ast.fix_missing_locations(module)
    return ast.unparse(module)


# --------------------------------------------------- linted generator load

def _load_kernel_gen(ctx: LintContext):
    """Execute the linted ``core/kernel_gen.py`` (memoized on the context).

    The only place lint *executes* linted code: emitter output is a pure
    function of the generator's code and the key, so running the linted
    module is exactly what makes edits to the emitters observable.
    Relative imports resolve against the installed ``repro.core``
    package (emitters only need the shared constant tables from there).
    """
    cached = getattr(ctx, "_tiersync_module", None)
    if cached is not None:
        if isinstance(cached, str):
            raise KernelGenError(cached)
        return cached
    path = os.path.join(ctx.root, KERNEL_GEN)
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.core._tiersync_kernel_gen", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception as exc:                       # pragma: no cover - defensive
        message = (f"cannot execute {KERNEL_GEN} for tier-sync: "
                   f"{type(exc).__name__}: {exc}")
        ctx._tiersync_module = message
        raise KernelGenError(message) from exc
    ctx._tiersync_module = module
    return module


def emit_fragment(module, key, emitter_name: str) -> str:
    emitter = getattr(module, emitter_name, None)
    if emitter is None:
        raise KernelGenError(
            f"fragment emitter {emitter_name!r} not found in {KERNEL_GEN}")
    lines: List[str] = []
    emitter(key, lines.append)
    return textwrap.dedent("\n".join(lines) + "\n")


def generated_kernels(ctx: LintContext):
    """One ``(label, key, source)`` per kernel coverage class, memoized.

    The classes mirror the key facts that gate whole regions of emitted
    code: runahead on/off and the minimal single-thread shape — together
    they exercise every emitter branch worth keeping hygienic.
    """
    cached = getattr(ctx, "_tiersync_kernels", None)
    if cached is not None:
        return cached
    module = _load_kernel_gen(ctx)
    key = getattr(module, "TIERSYNC_KEY", None)
    if key is None:
        raise KernelGenError(
            f"{KERNEL_GEN} declares no TIERSYNC_KEY representative key")
    variants = (
        ("full", key),
        ("no-runahead", key._replace(uses_runahead=False, ra_fp_inval=False,
                                     num_threads=2)),
        ("minimal", key._replace(num_threads=1, uses_runahead=False,
                                 ra_fp_inval=False, has_on_cycle=False,
                                 skip_enabled=False)),
    )
    kernels = []
    for label, variant in variants:
        source = module.emit_kernel_source(variant)
        compile(source, f"<kernel:{label}>", "exec")
        kernels.append((label, variant, source))
    ctx._tiersync_kernels = kernels
    return kernels


# ------------------------------------------------------------------- rule

def _op_summary(op: Tuple) -> str:
    kind = op[0]
    if kind in ("rename", "expr"):
        return f"{kind} {op[1]!r} -> {op[2]!r}"
    if kind == "stmt":
        snippet = textwrap.dedent(op[1]).strip().splitlines()
        head = snippet[0] if snippet else ""
        return f"{kind} rewrite starting {head!r}"
    if kind == "inline":
        return f"inline {op[1][1]}"
    if kind == "unroll":
        return f"unroll over {op[1]!r}"
    if kind == "guard":
        return f"guard on {op[2]}"
    return kind


def _apply_ops(ctx: LintContext, frag: Dict,
               src_stmts: List[ast.stmt]) -> None:
    for index, op in enumerate(frag.get("subs", ())):
        kind = op[0]
        count = 1
        if kind == "rename":
            count = apply_rename(src_stmts, op[1], op[2])
        elif kind == "expr":
            count = apply_expr_rewrite(src_stmts, parse_expr(op[1]),
                                       parse_expr(op[2]))
        elif kind == "stmt":
            count = apply_stmt_rewrite(src_stmts, parse_stmts(op[1]),
                                       parse_stmts(op[2]))
        elif kind == "inline":
            count = apply_inline(ctx, src_stmts, op[1], op[2], op[3],
                                 op[4] if len(op) > 4 else {})
        elif kind == "unroll":
            count = apply_unroll(src_stmts, op[1], op[2])
        elif kind == "guard":
            _check_guard(ctx, op[1], op[2], op[3])
        else:
            raise SubstitutionError(f"unknown substitution kind {kind!r}")
        if count == 0:
            raise SubstitutionError(
                f"declared substitution #{index} ({_op_summary(op)}) no "
                "longer matches the python tier — the source changed "
                "without a mirrored emitter/declaration update")


def _check_guard(ctx: LintContext, relpath: str, qualname: str,
                 expected: str) -> None:
    source = ctx.file(relpath)
    if source is None:
        raise SubstitutionError(f"guard module {relpath!r} not found")
    body = normalize(_function_body(source.tree, qualname))
    actual = normalized_text(body)
    wanted = textwrap.dedent(expected).strip("\n")
    if actual.strip() != wanted.strip():
        diff = "\n".join(difflib.unified_diff(
            wanted.strip().splitlines(), actual.strip().splitlines(),
            lineterm="", fromfile=f"declared {qualname}",
            tofile=f"current {qualname}"))
        raise SubstitutionError(
            f"guarded helper {relpath}:{qualname} drifted from the body "
            "the fragment's concrete rewrite transcribes — an undeclared "
            "substitution; mirror the change in the emitter and update "
            f"the guard:\n{diff}")


@rule
class TierSyncRule(Rule):
    name = "tier-sync"
    description = ("every kernel_gen emitter must be a declared-"
                   "substitution transcription of its pipeline source "
                   "fragment (FRAGMENTS table)")

    def run(self, ctx: LintContext) -> List[Finding]:
        try:
            module = _load_kernel_gen(ctx)
        except KernelGenError as exc:
            return [Finding(rule=self.name, path=KERNEL_GEN, line=1,
                            message=str(exc))]
        fragments = getattr(module, "FRAGMENTS", None)
        key = getattr(module, "TIERSYNC_KEY", None)
        if not fragments or key is None:
            return [Finding(
                rule=self.name, path=KERNEL_GEN, line=1,
                message=("kernel generator declares no FRAGMENTS/"
                         "TIERSYNC_KEY table — the kernel tier is "
                         "untracked by tier-sync"))]
        gen_source = ctx.file(KERNEL_GEN)
        emitter_lines = {name: node.lineno
                         for name, node in iter_functions(gen_source.tree)}
        findings: List[Finding] = []
        lines_covered = 0
        functions_covered = set()
        for frag in fragments:
            findings.extend(self._check_fragment(
                ctx, module, key, frag, emitter_lines))
            for relpath, qualname in frag.get("covers", ()):
                covered = ctx.file(relpath)
                if covered is None:
                    continue
                for name, node in iter_functions(covered.tree):
                    if name == qualname:
                        span = (node.end_lineno or node.lineno) - node.lineno + 1
                        if (relpath, qualname) not in functions_covered:
                            lines_covered += span
                        functions_covered.add((relpath, qualname))
        ctx.fragment_coverage = {
            "fragments": len(fragments),
            "functions": sorted(f"{path}:{name}"
                                for path, name in functions_covered),
            "lines_covered": lines_covered,
        }
        return findings

    def _check_fragment(self, ctx: LintContext, module, key, frag: Dict,
                        emitter_lines: Dict[str, int]) -> List[Finding]:
        name = frag.get("name", "?")
        emitter = frag.get("emitter", "?")
        src_rel, src_qual = frag["source"]
        source = ctx.file(src_rel)
        src_line = 1
        gen_line = emitter_lines.get(emitter, 1)
        if source is None:
            return [Finding(rule=self.name, path=src_rel, line=1,
                            message=(f"tier-sync fragment {name!r}: source "
                                     f"module {src_rel!r} not found"))]
        src_node = dict(iter_functions(source.tree)).get(src_qual)
        if src_node is None:
            return [Finding(
                rule=self.name, path=src_rel, line=1,
                message=(f"tier-sync fragment {name!r}: source function "
                         f"{src_qual!r} not found in {src_rel} — update "
                         "the FRAGMENTS declaration"))]
        src_line = src_node.lineno
        both = (f"{src_rel}:{src_line} ({src_qual}) vs "
                f"{KERNEL_GEN}:{gen_line} ({emitter})")
        try:
            kernel_text = emit_fragment(module, key, emitter)
            ker_stmts = ast.parse(kernel_text).body
        except (KernelGenError, SyntaxError) as exc:
            return [Finding(rule=self.name, path=KERNEL_GEN, line=gen_line,
                            message=(f"tier-sync fragment {name!r}: cannot "
                                     f"capture emitter output: {exc}"))]
        src_stmts = _function_body(source.tree, src_qual)
        try:
            _apply_ops(ctx, frag, src_stmts)
        except SubstitutionError as exc:
            return [Finding(
                rule=self.name, path=src_rel, line=src_line,
                message=(f"tier-sync fragment {name!r} ({both}): {exc}"))]
        if frag.get("wrap"):
            wrapper = parse_stmts(frag["wrap"])
            src_stmts = _substitute_stmts(wrapper, {"__BODY__": src_stmts})
        src_norm = normalize(src_stmts)
        ker_norm = normalize(ker_stmts)
        if _dump(src_norm) == _dump(ker_norm):
            return []
        src_text = normalized_text(src_norm).splitlines()
        ker_text = normalized_text(ker_norm).splitlines()
        diff = list(difflib.unified_diff(
            src_text, ker_text, lineterm="",
            fromfile=f"{src_rel}:{src_line} {src_qual} (normalized)",
            tofile=f"{KERNEL_GEN}:{gen_line} {emitter} (emitted, "
                   f"normalized)"))
        shown = "\n".join(diff[:_DIFF_LINES])
        if len(diff) > _DIFF_LINES:
            shown += f"\n... ({len(diff) - _DIFF_LINES} more diff lines)"
        return [Finding(
            rule=self.name, path=src_rel, line=src_line,
            message=(f"tier-sync fragment {name!r}: residual structural "
                     f"difference between {both} after declared "
                     f"substitutions — mirror the edit or update the "
                     f"fragment declaration:\n{shown}"))]
