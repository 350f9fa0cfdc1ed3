"""IR transformation and analysis passes."""
from .lower_task_mapping import lower_task_mappings
from .simplify import simplify, const_int
from .verify import verify_function, IRVerificationError

__all__ = ['lower', 'lower_task_mappings', 'simplify', 'const_int',
           'verify_function', 'IRVerificationError']


def lower(func):
    """The form codegen prints: task mappings lowered to loops and index
    arithmetic, then simplified."""
    return simplify(lower_task_mappings(func))
