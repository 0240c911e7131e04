"""SQL front-end: tokenizer, AST, and parser for the SPJGA dialect."""

from .ast import (
    Aggregate,
    And,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    OrderItem,
    SelectItem,
    SelectStatement,
    column_refs,
    has_aggregate,
    walk,
)
from .parser import parse, statement_shape
from .tokenizer import Token, TokenType, tokenize

__all__ = [
    "Aggregate", "And", "Between", "BinaryOp", "ColumnRef", "Comparison",
    "column_refs", "Expression", "has_aggregate", "InList", "Like",
    "Literal", "Not", "Or", "OrderItem", "parse", "SelectItem",
    "SelectStatement", "statement_shape", "Token", "tokenize", "TokenType",
    "walk",
]
