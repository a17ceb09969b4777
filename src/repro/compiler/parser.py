"""Recursive-descent parser for the kernel language.

Grammar (EBNF, whitespace and comments already removed by the lexer)::

    translation_unit := (global_decl | function)*
    global_decl      := "int" IDENT ("[" NUMBER "]")? ("=" initializer)? ";"
    initializer      := constant | "{" constant ("," constant)* "}"
    constant         := ("-")? NUMBER
    function         := ("int" | "void") IDENT "(" parameters ")" block
    parameters       := ("int" IDENT ("," "int" IDENT)*)?
    block            := "{" (local_decl | statement)* "}"
    local_decl       := "int" IDENT ("=" expression)?
                            ("," IDENT ("=" expression)?)* ";"
    statement        := block | if | while | do_while | for | return
                      | "break" ";" | "continue" ";"
                      | assignment ";" | expression ";" | ";"
    assignment       := lvalue "=" expression
    lvalue           := IDENT | IDENT "[" expression "]"
    if               := "if" "(" expression ")" statement ("else" statement)?
    while            := "while" "(" expression ")" statement
    do_while         := "do" statement "while" "(" expression ")" ";"
    for              := "for" "(" assignment? ";" expression? ";" assignment? ")"
                            statement
    return           := "return" expression? ";"

Expression precedence follows C: ``||`` < ``&&`` < ``|`` < ``^`` < ``&`` <
equality < relational < shifts < additive < multiplicative < unary.
"""

from __future__ import annotations

from typing import List, Optional

from .ast_nodes import (
    ArrayRef,
    Assign,
    BinaryOp,
    Block,
    BreakStmt,
    CallExpr,
    ContinueStmt,
    DoWhileStmt,
    Expr,
    ExprStmt,
    ForStmt,
    Function,
    GlobalVar,
    IfStmt,
    IntLiteral,
    LocalDecl,
    Parameter,
    ReturnStmt,
    Stmt,
    TranslationUnit,
    UnaryOp,
    VarRef,
    WhileStmt,
)
from .errors import ParseError
from .lexer import Token, tokenize

#: Binary operator precedence levels, lowest binding first.
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
    ["*", "/", "%"],
]
#: Binary operator -> its level in :data:`_BINARY_LEVELS`.
_PRECEDENCE = {op: level for level, ops in enumerate(_BINARY_LEVELS)
               for op in ops}


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0
        #: The token at ``position``.
        self.current = tokens[0]

    # ------------------------------------------------------------------ cursor
    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.position += 1
            self.current = self.tokens[self.position]
        return token

    def expect_op(self, text: str) -> Token:
        if not self.current.is_op(text):
            raise ParseError(f"expected {text!r}, found {self.current.text!r}",
                             self.current.line)
        return self.advance()

    def expect_keyword(self, text: str) -> Token:
        if not self.current.is_keyword(text):
            raise ParseError(f"expected {text!r}, found {self.current.text!r}",
                             self.current.line)
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise ParseError(f"expected identifier, found {self.current.text!r}",
                             self.current.line)
        return self.advance()

    def accept_op(self, text: str) -> bool:
        if self.current.is_op(text):
            self.advance()
            return True
        return False

    # ----------------------------------------------------------------- top level
    def parse(self) -> TranslationUnit:
        unit = TranslationUnit(line=1)
        while self.current.kind != "eof":
            if not (self.current.is_keyword("int") or self.current.is_keyword("void")):
                raise ParseError(
                    f"expected declaration, found {self.current.text!r}",
                    self.current.line,
                )
            # Distinguish a function from a global by looking past the name.
            next_next = self.tokens[self.position + 2] \
                if self.position + 2 < len(self.tokens) else self.current
            if next_next.is_op("("):
                unit.functions.append(self._function())
            else:
                unit.globals.append(self._global_decl())
        return unit

    def _global_decl(self) -> GlobalVar:
        line = self.current.line
        self.expect_keyword("int")
        name = self.expect_ident().text
        size: Optional[int] = None
        initializer: List[int] = []
        if self.accept_op("["):
            size_token = self.advance()
            if size_token.kind != "number":
                raise ParseError("array size must be a constant", size_token.line)
            size = size_token.value
            self.expect_op("]")
        if self.accept_op("="):
            if self.accept_op("{"):
                while not self.current.is_op("}"):
                    initializer.append(self._constant())
                    if not self.current.is_op("}"):
                        self.expect_op(",")
                self.expect_op("}")
            else:
                initializer.append(self._constant())
        self.expect_op(";")
        return GlobalVar(line=line, name=name, size=size, initializer=tuple(initializer))

    def _constant(self) -> int:
        negative = self.accept_op("-")
        token = self.advance()
        if token.kind != "number":
            raise ParseError("expected constant", token.line)
        return -token.value if negative else token.value

    def _function(self) -> Function:
        line = self.current.line
        returns_value = self.current.is_keyword("int")
        self.advance()  # int / void
        name = self.expect_ident().text
        self.expect_op("(")
        parameters: List[Parameter] = []
        if not self.current.is_op(")"):
            while True:
                self.expect_keyword("int")
                param = self.expect_ident()
                parameters.append(Parameter(line=param.line, name=param.text))
                if not self.accept_op(","):
                    break
        self.expect_op(")")
        body = self._block()
        return Function(line=line, name=name, parameters=parameters, body=body,
                        returns_value=returns_value)

    # ----------------------------------------------------------------- statements
    def _block(self) -> Block:
        line = self.current.line
        self.expect_op("{")
        statements: List[Stmt] = []
        while not self.current.is_op("}"):
            if self.current.is_keyword("int"):
                statements.extend(self._local_decl())
            else:
                statements.append(self._statement())
        self.expect_op("}")
        return Block(line=line, statements=statements)

    def _local_decl(self) -> List[LocalDecl]:
        line = self.current.line
        self.expect_keyword("int")
        decls: List[LocalDecl] = []
        while True:
            name = self.expect_ident().text
            initializer = None
            if self.accept_op("="):
                initializer = self._expression()
            decls.append(LocalDecl(line=line, name=name, initializer=initializer))
            if not self.accept_op(","):
                break
        self.expect_op(";")
        return decls

    def _statement(self) -> Stmt:
        token = self.current
        if token.is_op("{"):
            return self._block()
        if token.is_keyword("if"):
            return self._if()
        if token.is_keyword("while"):
            return self._while()
        if token.is_keyword("do"):
            return self._do_while()
        if token.is_keyword("for"):
            return self._for()
        if token.is_keyword("return"):
            return self._return()
        if token.is_keyword("break"):
            self.advance()
            self.expect_op(";")
            return BreakStmt(line=token.line)
        if token.is_keyword("continue"):
            self.advance()
            self.expect_op(";")
            return ContinueStmt(line=token.line)
        if token.is_op(";"):
            self.advance()
            return Block(line=token.line, statements=[])
        stmt = self._simple_statement()
        self.expect_op(";")
        return stmt

    def _simple_statement(self) -> Stmt:
        """An assignment or expression statement (no trailing semicolon)."""
        line = self.current.line
        expr = self._expression()
        if self.current.is_op("="):
            if not isinstance(expr, (VarRef, ArrayRef)):
                raise ParseError("invalid assignment target", line)
            self.advance()
            value = self._expression()
            return Assign(line=line, target=expr, value=value)
        return ExprStmt(line=line, expression=expr)

    def _if(self) -> IfStmt:
        line = self.current.line
        self.expect_keyword("if")
        self.expect_op("(")
        condition = self._expression()
        self.expect_op(")")
        then_body = self._statement()
        else_body = None
        if self.current.is_keyword("else"):
            self.advance()
            else_body = self._statement()
        return IfStmt(line=line, condition=condition, then_body=then_body,
                      else_body=else_body)

    def _while(self) -> WhileStmt:
        line = self.current.line
        self.expect_keyword("while")
        self.expect_op("(")
        condition = self._expression()
        self.expect_op(")")
        body = self._statement()
        return WhileStmt(line=line, condition=condition, body=body)

    def _do_while(self) -> DoWhileStmt:
        line = self.current.line
        self.expect_keyword("do")
        body = self._statement()
        self.expect_keyword("while")
        self.expect_op("(")
        condition = self._expression()
        self.expect_op(")")
        self.expect_op(";")
        return DoWhileStmt(line=line, body=body, condition=condition)

    def _for(self) -> ForStmt:
        line = self.current.line
        self.expect_keyword("for")
        self.expect_op("(")
        init = None
        if not self.current.is_op(";"):
            init = self._simple_statement()
        self.expect_op(";")
        condition = None
        if not self.current.is_op(";"):
            condition = self._expression()
        self.expect_op(";")
        update = None
        if not self.current.is_op(")"):
            update = self._simple_statement()
        self.expect_op(")")
        body = self._statement()
        return ForStmt(line=line, init=init, condition=condition, update=update, body=body)

    def _return(self) -> ReturnStmt:
        line = self.current.line
        self.expect_keyword("return")
        value = None
        if not self.current.is_op(";"):
            value = self._expression()
        self.expect_op(";")
        return ReturnStmt(line=line, value=value)

    # ---------------------------------------------------------------- expressions
    def _expression(self) -> Expr:
        return self._binary(0)

    def _binary(self, level: int) -> Expr:
        """A chain of binary operators of ``level`` or tighter (precedence
        climbing): each operator's right operand binds only tighter
        operators, so equal levels associate to the left."""
        left = self._unary()
        while True:
            op = self.current
            if op.kind != "op":
                return left
            op_level = _PRECEDENCE.get(op.text)
            if op_level is None or op_level < level:
                return left
            self.advance()
            right = self._binary(op_level + 1)
            left = BinaryOp(line=op.line, op=op.text, left=left, right=right)

    def _unary(self) -> Expr:
        token = self.current
        if token.kind == "op" and token.text in ("-", "~", "!"):
            self.advance()
            operand = self._unary()
            return UnaryOp(line=token.line, op=token.text, operand=operand)
        if token.is_op("+"):
            self.advance()
            return self._unary()
        return self._primary()

    def _primary(self) -> Expr:
        token = self.current
        if token.kind == "number":
            self.advance()
            return IntLiteral(line=token.line, value=token.value)
        if token.is_op("("):
            self.advance()
            expr = self._expression()
            self.expect_op(")")
            return expr
        if token.kind == "ident":
            name = self.advance().text
            if self.accept_op("("):
                args: List[Expr] = []
                if not self.current.is_op(")"):
                    while True:
                        args.append(self._expression())
                        if not self.accept_op(","):
                            break
                self.expect_op(")")
                return CallExpr(line=token.line, name=name, args=args)
            if self.accept_op("["):
                index = self._expression()
                self.expect_op("]")
                return ArrayRef(line=token.line, name=name, index=index)
            return VarRef(line=token.line, name=name)
        raise ParseError(f"unexpected token {token.text!r}", token.line)


def parse(source: str) -> TranslationUnit:
    """Parse kernel-language ``source`` into a :class:`TranslationUnit`."""
    return Parser(tokenize(source)).parse()
