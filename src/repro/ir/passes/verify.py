"""Well-formedness verification of kernel functions.

Checked invariants (violations raise :class:`IRVerificationError`):

* every variable is declared (as a parameter, declaration, let, or loop
  variable) before use, and never re-declared in the same scope chain;
* tensor accesses use the right number of indices;
* kernel parameters live in global memory; shared/register buffers are only
  introduced via declarations;
* stores target tensor variables; scalar assignment targets scalar variables;
* no ``ForTaskStmt`` remains after lowering (when ``lowered=True``);
* barrier placement: barriers may not appear inside divergent branches
  (an ``IfStmt`` whose condition depends on ``threadIdx``), which would
  deadlock on real hardware.
"""
from __future__ import annotations

from ..expr import (Var, TensorElement, ThreadIndex, Expr)
from ..func import Function
from ..functor import IRVisitor, NodeFunctor, contains
from ..stmt import (AssignStmt, BarrierStmt, BufferStoreStmt, DeclareStmt, ForStmt,
                    ForTaskStmt, IfStmt, LetStmt)
from ..types import TensorType

__all__ = ['verify_function', 'IRVerificationError']


class IRVerificationError(Exception):
    pass


class _Verifier(IRVisitor):
    def __init__(self, func: Function, lowered: bool):
        super().__init__()
        self.func = func
        self.lowered = lowered
        self.declared: set[int] = {p._id for p in func.params}
        self.divergent_depth = 0
        self._checked: dict[int, Expr] = {}   # id -> expression that passed
        self._thread_reads: dict = {}         # contains() memo: threadIdx below?

    def fail(self, message: str):
        raise IRVerificationError(f'in kernel {self.func.name!r}: {message}')

    def visit(self, node):
        # the declared set only grows, so an expression that passed once
        # passes again: check each distinct expression object once
        if id(node) in self._checked:
            return
        NodeFunctor.visit(self, node)
        if isinstance(node, Expr):
            self._checked[id(node)] = node

    # -- expressions ----------------------------------------------------------

    def visit_Var(self, e: Var):
        if e._id not in self.declared:
            self.fail(f'variable {e.name!r} used before declaration')

    def visit_TensorElement(self, e: TensorElement):
        self.visit(e.base)
        if isinstance(e.base, Var):
            if not isinstance(e.base.type, TensorType):
                self.fail(f'indexing into scalar variable {e.base.name!r}')
            if len(e.indices) != e.base.type.rank:
                self.fail(f'tensor {e.base.name!r} has rank {e.base.type.rank} '
                          f'but was indexed with {len(e.indices)} indices')
        for i in e.indices:
            self.visit(i)

    # -- statements -----------------------------------------------------------

    def visit_DeclareStmt(self, s: DeclareStmt):
        if s.init is not None:
            self.visit(s.init)
        if s.var._id in self.declared:
            self.fail(f'variable {s.var.name!r} declared twice')
        self.declared.add(s.var._id)

    def visit_LetStmt(self, s: LetStmt):
        self.visit(s.value)
        self.declared.add(s.var._id)
        self.visit(s.body)

    def visit_ForStmt(self, s: ForStmt):
        self.visit(s.extent)
        self.declared.add(s.loop_var._id)
        self.visit(s.body)

    def visit_ForTaskStmt(self, s: ForTaskStmt):
        if self.lowered:
            self.fail('ForTaskStmt remains after task-mapping lowering')
        self.visit(s.worker)
        for v in s.loop_vars:
            self.declared.add(v._id)
        self.visit(s.body)

    def visit_BufferStoreStmt(self, s: BufferStoreStmt):
        self.visit(s.buf)
        if not isinstance(s.buf.type, TensorType):
            self.fail(f'store target {s.buf.name!r} is not a tensor')
        if len(s.indices) != s.buf.type.rank:
            self.fail(f'tensor {s.buf.name!r} has rank {s.buf.type.rank} '
                      f'but was stored with {len(s.indices)} indices')
        for i in s.indices:
            self.visit(i)
        self.visit(s.value)

    def visit_AssignStmt(self, s: AssignStmt):
        self.visit(s.var)
        if isinstance(s.var.type, TensorType):
            self.fail(f'scalar assignment to tensor variable {s.var.name!r}')
        self.visit(s.value)

    def visit_IfStmt(self, s: IfStmt):
        self.visit(s.cond)
        divergent = contains(s.cond, ThreadIndex, self._thread_reads)
        self.divergent_depth += int(divergent)
        self.visit(s.then_body)
        if s.else_body is not None:
            self.visit(s.else_body)
        self.divergent_depth -= int(divergent)

    def visit_BarrierStmt(self, s: BarrierStmt):
        if self.divergent_depth > 0:
            self.fail('__syncthreads() inside a thread-divergent branch would deadlock')


def verify_function(func: Function, lowered: bool = False) -> None:
    """Raise :class:`IRVerificationError` if the function is ill-formed."""
    for p in func.params:
        if isinstance(p.type, TensorType) and p.type.scope != 'global':
            raise IRVerificationError(
                f'in kernel {func.name!r}: parameter {p.name!r} must be global')
    _Verifier(func, lowered).visit(func.body)
