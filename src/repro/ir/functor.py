"""Visitor and rewriter infrastructure over the IR.

:class:`IRVisitor` walks expressions and statements; :class:`IRRewriter`
reconstructs the tree bottom-up, sharing unchanged sub-trees.  Both dispatch
on node class via a memoized method table, so adding a node type only
requires adding one ``visit_X`` method.

Rewriting shares sub-trees, so a lowered kernel is a DAG: one index
expression object can sit under many statements.  :class:`MemoRewriter`
rewrites each distinct expression object once per instance,
:func:`contains` answers "is there a node of this type below?" once per
distinct node, and :func:`collect_stmts` finds statements without entering
any expression.
"""
from __future__ import annotations

from typing import Callable, Type

from .expr import (Expr, Var, Constant, BinaryExpr, UnaryExpr, Cast, TensorElement,
                   IfThenElse, Call, ThreadIndex, BlockIndex)
from .stmt import (DeclareStmt, BufferStoreStmt, AssignStmt, LetStmt, ForStmt,
                   ForTaskStmt, IfStmt, SeqStmt, BarrierStmt, EvaluateStmt)

__all__ = ['IRVisitor', 'IRRewriter', 'MemoRewriter', 'collect', 'collect_stmts',
           'contains']


class NodeFunctor:
    """Dispatch ``visit(node)`` to ``visit_<ClassName>``.

    The handler of each node class is looked up once per functor class, not
    once per instance: many walks (``collect``, ``substitute``) build a
    short-lived functor per call.
    """

    _handlers: dict[type, Callable] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._handlers = {}

    def visit(self, node):
        handler = self._handlers.get(type(node))
        if handler is None:
            handler = self._resolve(type(node))
        return handler(self, node)

    def _resolve(self, cls: type) -> Callable:
        handler = getattr(type(self), 'visit_' + cls.__name__, None)
        if handler is None:
            raise NotImplementedError(
                f'{type(self).__name__} has no handler for {cls.__name__}'
            )
        self._handlers[cls] = handler
        return handler

    def __call__(self, node):
        return self.visit(node)


class IRVisitor(NodeFunctor):
    """Read-only traversal; override the handlers you care about.

    Computation-definition nodes (:mod:`repro.ir.compute`) are handled too:
    tensor nodes are treated as leaves (their defining ``value`` belongs to
    the producing operator, not to the consuming expression), while scalar
    ``ReduceCompute`` expressions are traversed.
    """

    # ---- computation definitions ----
    def visit_TensorInput(self, e):
        pass

    def visit_GridCompute(self, e):
        pass

    def visit_ReduceCompute(self, e):
        self.visit(e.value)

    # ---- expressions ----
    def visit_Var(self, e: Var):
        pass

    def visit_Constant(self, e: Constant):
        pass

    def visit_ThreadIndex(self, e: ThreadIndex):
        pass

    def visit_BlockIndex(self, e: BlockIndex):
        pass

    def visit_BinaryExpr(self, e: BinaryExpr):
        self.visit(e.a)
        self.visit(e.b)

    def visit_UnaryExpr(self, e: UnaryExpr):
        self.visit(e.a)

    def visit_Cast(self, e: Cast):
        self.visit(e.expr)

    def visit_TensorElement(self, e: TensorElement):
        self.visit(e.base)
        for i in e.indices:
            self.visit(i)

    def visit_IfThenElse(self, e: IfThenElse):
        self.visit(e.cond)
        self.visit(e.then_expr)
        self.visit(e.else_expr)

    def visit_Call(self, e: Call):
        for a in e.args:
            self.visit(a)

    # ---- statements ----
    def visit_DeclareStmt(self, s: DeclareStmt):
        self.visit(s.var)
        if s.init is not None:
            self.visit(s.init)

    def visit_BufferStoreStmt(self, s: BufferStoreStmt):
        self.visit(s.buf)
        for i in s.indices:
            self.visit(i)
        self.visit(s.value)

    def visit_AssignStmt(self, s: AssignStmt):
        self.visit(s.var)
        self.visit(s.value)

    def visit_LetStmt(self, s: LetStmt):
        self.visit(s.var)
        self.visit(s.value)
        self.visit(s.body)

    def visit_ForStmt(self, s: ForStmt):
        self.visit(s.loop_var)
        self.visit(s.extent)
        self.visit(s.body)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        for v in s.loop_vars:
            self.visit(v)
        self.visit(s.worker)
        self.visit(s.body)

    def visit_IfStmt(self, s: IfStmt):
        self.visit(s.cond)
        self.visit(s.then_body)
        if s.else_body is not None:
            self.visit(s.else_body)

    def visit_SeqStmt(self, s: SeqStmt):
        for st in s.stmts:
            self.visit(st)

    def visit_BarrierStmt(self, s: BarrierStmt):
        pass

    def visit_EvaluateStmt(self, s: EvaluateStmt):
        self.visit(s.expr)


class IRRewriter(NodeFunctor):
    """Bottom-up reconstruction; unchanged sub-trees are returned as-is."""

    # ---- computation definitions ----
    def visit_TensorInput(self, e):
        return e

    def visit_GridCompute(self, e):
        return e

    def visit_ReduceCompute(self, e):
        from .compute import ReduceCompute
        value = self.visit(e.value)
        if value is e.value:
            return e
        return ReduceCompute(e.axes, e.extents, value, e.op)

    # ---- expressions ----
    def visit_Var(self, e: Var):
        return e

    def visit_Constant(self, e: Constant):
        return e

    def visit_ThreadIndex(self, e: ThreadIndex):
        return e

    def visit_BlockIndex(self, e: BlockIndex):
        return e

    def visit_BinaryExpr(self, e: BinaryExpr):
        a, b = self.visit(e.a), self.visit(e.b)
        if a is e.a and b is e.b:
            return e
        return BinaryExpr(e.op, a, b)

    def visit_UnaryExpr(self, e: UnaryExpr):
        a = self.visit(e.a)
        return e if a is e.a else UnaryExpr(e.op, a)

    def visit_Cast(self, e: Cast):
        inner = self.visit(e.expr)
        return e if inner is e.expr else Cast(inner, e.dtype)

    def visit_TensorElement(self, e: TensorElement):
        base = self.visit(e.base)
        indices = tuple(self.visit(i) for i in e.indices)
        if base is e.base and all(x is y for x, y in zip(indices, e.indices)):
            return e
        return TensorElement(base, indices)

    def visit_IfThenElse(self, e: IfThenElse):
        c, t, f = self.visit(e.cond), self.visit(e.then_expr), self.visit(e.else_expr)
        if c is e.cond and t is e.then_expr and f is e.else_expr:
            return e
        return IfThenElse(c, t, f)

    def visit_Call(self, e: Call):
        args = tuple(self.visit(a) for a in e.args)
        if all(x is y for x, y in zip(args, e.args)):
            return e
        return Call(e.func_name, args)

    # ---- statements ----
    def visit_DeclareStmt(self, s: DeclareStmt):
        var = self.visit(s.var)
        init = self.visit(s.init) if s.init is not None else None
        if var is s.var and init is s.init:
            return s
        return DeclareStmt(var, init)

    def visit_BufferStoreStmt(self, s: BufferStoreStmt):
        buf = self.visit(s.buf)
        indices = tuple(self.visit(i) for i in s.indices)
        value = self.visit(s.value)
        if buf is s.buf and value is s.value and all(x is y for x, y in zip(indices, s.indices)):
            return s
        return BufferStoreStmt(buf, indices, value)

    def visit_AssignStmt(self, s: AssignStmt):
        var, value = self.visit(s.var), self.visit(s.value)
        if var is s.var and value is s.value:
            return s
        return AssignStmt(var, value)

    def visit_LetStmt(self, s: LetStmt):
        var, value, body = self.visit(s.var), self.visit(s.value), self.visit(s.body)
        if var is s.var and value is s.value and body is s.body:
            return s
        return LetStmt(var, value, body)

    def visit_ForStmt(self, s: ForStmt):
        loop_var, extent, body = self.visit(s.loop_var), self.visit(s.extent), self.visit(s.body)
        if loop_var is s.loop_var and extent is s.extent and body is s.body:
            return s
        return ForStmt(loop_var, extent, body, s.unroll)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        loop_vars = tuple(self.visit(v) for v in s.loop_vars)
        worker = self.visit(s.worker)
        body = self.visit(s.body)
        if worker is s.worker and body is s.body and all(x is y for x, y in zip(loop_vars, s.loop_vars)):
            return s
        return ForTaskStmt(loop_vars, s.mapping, worker, body)

    def visit_IfStmt(self, s: IfStmt):
        cond = self.visit(s.cond)
        then_body = self.visit(s.then_body)
        else_body = self.visit(s.else_body) if s.else_body is not None else None
        if cond is s.cond and then_body is s.then_body and else_body is s.else_body:
            return s
        return IfStmt(cond, then_body, else_body)

    def visit_SeqStmt(self, s: SeqStmt):
        stmts = tuple(self.visit(st) for st in s.stmts)
        if all(x is y for x, y in zip(stmts, s.stmts)):
            return s
        return SeqStmt(stmts)

    def visit_BarrierStmt(self, s: BarrierStmt):
        return s

    def visit_EvaluateStmt(self, s: EvaluateStmt):
        expr = self.visit(s.expr)
        return s if expr is s.expr else EvaluateStmt(expr)


class _Collector(IRVisitor):
    """Pre-order collection of the sub-nodes of some type(s)."""

    def __init__(self, node_types: Type | tuple):
        super().__init__()
        self.node_types = node_types
        self.found: list = []

    def visit(self, n):
        if isinstance(n, self.node_types):
            self.found.append(n)
        return NodeFunctor.visit(self, n)


def collect(node, node_types: Type | tuple) -> list:
    """Collect all sub-nodes of the given type(s) in pre-order."""
    collector = _Collector(node_types)
    collector.visit(node)
    return collector.found


class MemoRewriter(IRRewriter):
    """An :class:`IRRewriter` that rewrites each distinct expression once.

    The rewrite of an expression is memoized by object identity for the
    life of the instance, so a sub-tree shared by many parents costs one
    rewrite.  Each memo entry holds its node, so the node's ``id`` cannot be
    reused while the entry lives.  Only a rewriter whose expression rewrite
    is a function of the node alone may use the memo as is; one that reads
    mutable context must call :meth:`forget` whenever that context changes
    a fact an earlier rewrite may have read.  Statements are not memoized.

    A rewriter whose every result rewrites to itself sets ``idempotent``:
    each result is then memoized as its own rewrite too, so a later visit
    of a result (say, after substituting into part of it) costs nothing.
    """

    idempotent = False

    def __init__(self):
        super().__init__()
        self._memo: dict[int, tuple] = {}   # id(expr) -> (expr, rewrite)

    def visit(self, node):
        hit = self._memo.get(id(node))
        if hit is not None:
            return hit[1]
        handler = self._handlers.get(type(node))
        if handler is None:
            handler = self._resolve(type(node))
        result = handler(self, node)
        if isinstance(node, Expr):
            self._memo[id(node)] = (node, result)
            if self.idempotent and result is not node:
                self._memo.setdefault(id(result), (result, result))
        return result

    def forget(self):
        """Drop every memoized rewrite."""
        self._memo.clear()


def collect_stmts(stmt, stmt_types: Type | tuple) -> list:
    """Collect the statements of the given type(s) under ``stmt`` in pre-order.

    Same result as :func:`collect` for statement types, but the walk never
    enters an expression.
    """
    found: list = []
    stack = [stmt]
    while stack:
        s = stack.pop()
        if isinstance(s, stmt_types):
            found.append(s)
        if isinstance(s, SeqStmt):
            stack.extend(reversed(s.stmts))
        elif isinstance(s, IfStmt):
            if s.else_body is not None:
                stack.append(s.else_body)
            stack.append(s.then_body)
        elif isinstance(s, (ForStmt, ForTaskStmt, LetStmt)):
            stack.append(s.body)
    return found


class _Finder(IRVisitor):
    """Does a node of some type(s) occur below each visited node?"""

    def __init__(self, node_types: Type | tuple, memo: dict):
        super().__init__()
        self.node_types = node_types
        self.memo = memo        # id(node) -> (node, found below?)
        self.found = False

    def visit(self, n):
        hit = self.memo.get(id(n))
        if hit is not None:
            self.found = self.found or hit[1]
            return
        outer, self.found = self.found, False
        if isinstance(n, self.node_types):
            self.found = True
        else:
            NodeFunctor.visit(self, n)
        self.memo[id(n)] = (n, self.found)
        self.found = outer or self.found


def contains(node, node_types: Type | tuple, memo: dict | None = None) -> bool:
    """Whether ``node`` is, or has below it, a node of the given type(s).

    Same answer as ``bool(collect(node, node_types))``.  Pass one ``memo``
    dict (per ``node_types``) to every call of a walk and each distinct node
    is visited once across all of them; each entry holds its node, so ids
    are not reused.  A memo hit on ``node`` itself costs one dict lookup.
    """
    if memo is None:
        memo = {}
    hit = memo.get(id(node))
    if hit is not None:
        return hit[1]
    finder = _Finder(node_types, memo)
    finder.visit(node)
    return finder.found
