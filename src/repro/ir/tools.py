"""IR utilities: pretty-printing, substitution, free-variable analysis."""
from __future__ import annotations

from typing import Mapping

from .expr import (Expr, Var, Constant, BinaryExpr, UnaryExpr, Cast, TensorElement,
                   IfThenElse, Call, ThreadIndex, BlockIndex, BINARY_PRECEDENCE)
from .stmt import (Stmt, DeclareStmt, BufferStoreStmt, AssignStmt, LetStmt, ForStmt,
                   ForTaskStmt, IfStmt, SeqStmt, BarrierStmt, EvaluateStmt)
from .functor import IRVisitor, MemoRewriter

__all__ = ['expr_repr', 'stmt_repr', 'func_repr', 'substitute', 'free_vars']

def expr_repr(e: Expr) -> str:
    return _ExprPrinter().visit(e)


class _ExprPrinter:
    def visit(self, e: Expr, parent_prec: int = 0) -> str:
        if isinstance(e, Var):
            return e.name
        if isinstance(e, Constant):
            if e.dtype.is_float:
                return repr(float(e.value))
            return repr(e.value)
        if isinstance(e, ThreadIndex):
            return f'threadIdx.{e.dim}'
        if isinstance(e, BlockIndex):
            return f'blockIdx.{e.dim}'
        if isinstance(e, BinaryExpr):
            if e.op in ('min', 'max'):
                return f'{e.op}({self.visit(e.a)}, {self.visit(e.b)})'
            prec = BINARY_PRECEDENCE[e.op]
            text = f'{self.visit(e.a, prec)} {e.op} {self.visit(e.b, prec + 1)}'
            return f'({text})' if prec < parent_prec else text
        if isinstance(e, UnaryExpr):
            if e.op in ('-', '!'):
                return f'{e.op}{self.visit(e.a, 7)}'
            return f'{e.op}({self.visit(e.a)})'
        if isinstance(e, Cast):
            return f'{e.dtype}({self.visit(e.expr)})'
        if isinstance(e, TensorElement):
            idx = ', '.join(self.visit(i) for i in e.indices)
            return f'{self.visit(e.base, 8)}[{idx}]'
        if isinstance(e, IfThenElse):
            return f'({self.visit(e.cond)} ? {self.visit(e.then_expr)} : {self.visit(e.else_expr)})'
        if isinstance(e, Call):
            args = ', '.join(self.visit(a) for a in e.args)
            return f'{e.func_name}({args})'
        raise NotImplementedError(type(e).__name__)


def stmt_repr(s: Stmt, indent: int = 0) -> str:
    pad = '    ' * indent
    p = expr_repr
    if isinstance(s, DeclareStmt):
        if s.var.is_tensor:
            return f'{pad}{s.var.name} = {s.var.type!r}'
        init = f' = {p(s.init)}' if s.init is not None else ''
        return f'{pad}{s.var.type!r} {s.var.name}{init}'
    if isinstance(s, BufferStoreStmt):
        idx = ', '.join(p(i) for i in s.indices)
        return f'{pad}{s.buf.name}[{idx}] = {p(s.value)}'
    if isinstance(s, AssignStmt):
        return f'{pad}{s.var.name} = {p(s.value)}'
    if isinstance(s, LetStmt):
        return f'{pad}let {s.var.name} = {p(s.value)}\n{stmt_repr(s.body, indent)}'
    if isinstance(s, ForStmt):
        head = f'{pad}for {s.loop_var.name} in range({p(s.extent)}):'
        if s.unroll:
            head = f'{pad}# unrolled\n{head}'
        return f'{head}\n{stmt_repr(s.body, indent + 1)}'
    if isinstance(s, ForTaskStmt):
        names = ', '.join(v.name for v in s.loop_vars)
        return (f'{pad}for {names} in {s.mapping!r}.on({p(s.worker)}):\n'
                f'{stmt_repr(s.body, indent + 1)}')
    if isinstance(s, IfStmt):
        text = f'{pad}if {p(s.cond)}:\n{stmt_repr(s.then_body, indent + 1)}'
        if s.else_body is not None:
            text += f'\n{pad}else:\n{stmt_repr(s.else_body, indent + 1)}'
        return text
    if isinstance(s, SeqStmt):
        return '\n'.join(stmt_repr(st, indent) for st in s.stmts)
    if isinstance(s, BarrierStmt):
        return f'{pad}syncthreads()'
    if isinstance(s, EvaluateStmt):
        return f'{pad}{p(s.expr)}'
    raise NotImplementedError(type(s).__name__)


def func_repr(func) -> str:
    params = ', '.join(
        f'{v.name}: {v.type!r}' for v in func.params
    )
    head = (f'def {func.name}({params})  '
            f'# grid={func.grid_dim} block={func.block_dim}')
    return f'{head}\n{stmt_repr(func.body, 1)}'


class _Substituter(MemoRewriter):
    def __init__(self, mapping: Mapping[Var, Expr]):
        super().__init__()
        self.mapping = dict(mapping)

    def visit_Var(self, e: Var):
        return self.mapping.get(e, e)


def substitute(node, mapping: Mapping[Var, Expr]):
    """Replace free occurrences of variables by expressions.

    Note: bindings are not alpha-renamed; callers must not substitute a
    variable that is re-bound inside ``node``.  A sub-tree shared by several
    parents is rewritten once, and its rewrite is shared.
    """
    if not mapping:
        return node
    return _Substituter(mapping).visit(node)


class _FreeVarCollector(IRVisitor):
    def __init__(self):
        super().__init__()
        self.bound: set[int] = set()
        self.free: list[Var] = []
        self._seen: set[int] = set()

    def _bind(self, var: Var):
        self.bound.add(var._id)

    def visit_Var(self, e: Var):
        if e._id not in self.bound and e._id not in self._seen:
            self._seen.add(e._id)
            self.free.append(e)

    def visit_DeclareStmt(self, s: DeclareStmt):
        if s.init is not None:
            self.visit(s.init)
        self._bind(s.var)

    def visit_LetStmt(self, s: LetStmt):
        self.visit(s.value)
        self._bind(s.var)
        self.visit(s.body)

    def visit_ForStmt(self, s: ForStmt):
        self.visit(s.extent)
        self._bind(s.loop_var)
        self.visit(s.body)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        self.visit(s.worker)
        for v in s.loop_vars:
            self._bind(v)
        self.visit(s.body)


def free_vars(node) -> list[Var]:
    """Variables used but not bound within ``node``, in first-use order."""
    collector = _FreeVarCollector()
    collector.visit(node)
    return collector.free

