//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query        := union_term ( UNION ALL union_term )*        -- left-associative
//! union_term   := select_block | '(' query ')'
//! select_block := SELECT select_list FROM from_item
//!                 [ [INNER] JOIN from_item ON column '=' column ]
//!                 [ WHERE condition ( AND condition )* ]
//!                 [ GROUP BY column ( ',' column )* ]
//!                 [ ORDER BY column [ASC|DESC] ( ',' column [ASC|DESC] )* ]
//!                 [ LIMIT number ]
//! select_list  := '*' | column ( ',' column )*
//! from_item    := ident | '(' query ')'
//! condition    := column cmp value | value cmp column
//!               | column BETWEEN value AND value
//! cmp          := '=' | '<' | '<=' | '>' | '>=' | '!=' | '<>'
//! value        := ['-'] number | '?'
//! column       := ident [ '.' ident ]
//! ```
//!
//! `?` placeholders are numbered left to right in lexical order. The parser
//! is purely syntactic: names, parameter arity, and clause legality are the
//! rewrite pipeline's business.
//!
//! Nesting is bounded by [`MAX_QUERY_DEPTH`], so hostile input such as
//! `SELECT * FROM (` repeated 100k times yields an [`ErrorKind::TooDeep`]
//! diagnostic instead of overflowing the stack in the parser or in any
//! later recursive pass over the tree.

use crate::ast::{
    BetweenCond, CmpCond, ColumnRef, Condition, FromItem, JoinClause, Limit, OrderKey, QueryExpr,
    SelectBlock, SelectList, Span, Value,
};
use crate::diag::{ErrorKind, Result, SqlError};
use crate::lexer::{lex, Token, TokenKind};
use adas_workload::plan::CmpOp;

/// Most nesting levels a query tree may have. Each derived table
/// `FROM (…)`, each parenthesized query `(…)`, and each `UNION ALL` adds
/// one level above what it contains; a left-deep chain of `n` `UNION ALL`
/// operands is `n - 1` levels tall. The parser rejects the token that would
/// cross the limit — the `(` or the `UNION` — before building anything
/// deeper, so neither it nor any later recursive pass (rewrite, lowering,
/// drop) ever sees an over-deep tree. A query at the limit compiles on a
/// default 2 MiB thread.
pub const MAX_QUERY_DEPTH: usize = 128;

/// Parses a complete query, consuming all input.
pub fn parse(sql: &str) -> Result<QueryExpr> {
    let tokens = lex(sql)?;
    let mut parser = Parser {
        src: sql,
        tokens,
        pos: 0,
        next_param: 0,
        depth: 0,
    };
    let (query, _) = parser.query()?;
    let token = *parser.peek();
    if token.kind != TokenKind::Eof {
        return Err(SqlError::new(
            ErrorKind::TrailingInput {
                found: token.describe(sql),
            },
            token.span,
        ));
    }
    Ok(query)
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    next_param: usize,
    /// Nesting levels open around the production being parsed.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    /// The source text a token covers (identifier spelling, etc.).
    fn text(&self, token: &Token) -> &str {
        &self.src[token.span.start..token.span.end]
    }

    fn advance(&mut self) -> Token {
        let token = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    /// Span of the most recently consumed token.
    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn error_here(&self, expected: &str) -> SqlError {
        let token = self.peek();
        let kind = if token.kind == TokenKind::Eof {
            ErrorKind::UnexpectedEof {
                expected: expected.to_string(),
            }
        } else {
            ErrorKind::UnexpectedToken {
                expected: expected.to_string(),
                found: token.describe(self.src),
            }
        };
        SqlError::new(kind, token.span)
    }

    fn expect(&mut self, kind: &TokenKind, expected: &str) -> Result<Token> {
        if &self.peek().kind == kind {
            Ok(self.advance())
        } else {
            Err(self.error_here(expected))
        }
    }

    /// True when the next token is the given keyword (case-insensitive).
    fn at_keyword(&self, kw: &str) -> bool {
        let token = self.peek();
        token.kind == TokenKind::Ident && self.text(token).eq_ignore_ascii_case(kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token> {
        if self.at_keyword(kw) {
            Ok(self.advance())
        } else {
            Err(self.error_here(&format!("`{kw}`")))
        }
    }

    fn ident(&mut self, expected: &str) -> Result<(String, Span)> {
        if self.peek().kind == TokenKind::Ident {
            let token = self.advance();
            Ok((self.text(&token).to_string(), token.span))
        } else {
            Err(self.error_here(expected))
        }
    }

    /// Fails on `token` when a node `levels` above the current production
    /// would cross [`MAX_QUERY_DEPTH`].
    fn check_depth(&self, levels: usize, token: &Token) -> Result<()> {
        if self.depth + levels > MAX_QUERY_DEPTH {
            return Err(SqlError::new(
                ErrorKind::TooDeep {
                    limit: MAX_QUERY_DEPTH,
                },
                token.span,
            ));
        }
        Ok(())
    }

    /// Consumes the `(` at the cursor and parses the query inside it one
    /// level deeper. Returns the `(` token, the query, and its height.
    fn nested_query(&mut self) -> Result<(Token, QueryExpr, usize)> {
        let open = *self.peek();
        self.check_depth(1, &open)?;
        self.advance();
        self.depth += 1;
        let inner = self.query();
        self.depth -= 1;
        let (query, height) = inner?;
        Ok((open, query, height + 1))
    }

    /// Parses a query and returns it with its height in nesting levels
    /// (see [`MAX_QUERY_DEPTH`]). Every production parsed at `self.depth`
    /// keeps `self.depth + height <= MAX_QUERY_DEPTH`.
    fn query(&mut self) -> Result<(QueryExpr, usize)> {
        let first = self.union_term()?;
        if self.at_keyword("UNION") {
            self.union_chain(first)
        } else {
            Ok(first)
        }
    }

    /// The `UNION ALL` operands after a query's first one, folded
    /// left-deep. Split from [`Parser::query`] so the frame the nesting
    /// recursion passes through stays small.
    fn union_chain(&mut self, first: (QueryExpr, usize)) -> Result<(QueryExpr, usize)> {
        let (mut left, mut height) = first;
        while self.at_keyword("UNION") {
            // The union node sits one level above both operands.
            let union = *self.peek();
            self.check_depth(height + 1, &union)?;
            self.advance();
            self.expect_keyword("ALL")?;
            self.depth += 1;
            let right = self.union_term();
            self.depth -= 1;
            let (right, right_height) = right?;
            height = 1 + height.max(right_height);
            let span = left.span().join(right.span());
            left = QueryExpr::Union {
                left: Box::new(left),
                right: Box::new(right),
                span,
            };
        }
        Ok((left, height))
    }

    fn union_term(&mut self) -> Result<(QueryExpr, usize)> {
        if self.peek().kind == TokenKind::LParen {
            let (_, query, height) = self.nested_query()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            Ok((query, height))
        } else {
            let (block, height) = self.select_block()?;
            Ok((QueryExpr::Select(Box::new(block)), height))
        }
    }

    /// Parses one select block and returns it with the height of its
    /// deepest derived table (0 when it reads only base tables).
    fn select_block(&mut self) -> Result<(SelectBlock, usize)> {
        let start = self.expect_keyword("SELECT")?.span;
        let select = self.select_list()?;
        self.expect_keyword("FROM")?;
        let (from, height) = self.parse_from_item()?;
        self.block_clauses(start, select, from, height)
    }

    /// The clauses after a block's FROM item. Split from
    /// [`Parser::select_block`] so the frame the derived-table recursion
    /// passes through stays small.
    fn block_clauses(
        &mut self,
        start: Span,
        select: SelectList,
        from: FromItem,
        mut height: usize,
    ) -> Result<(SelectBlock, usize)> {
        let join = if self.at_keyword("JOIN") || self.at_keyword("INNER") {
            let join_start = self.peek().span;
            if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
            } else {
                self.advance();
            }
            let (right, right_height) = self.parse_from_item()?;
            height = height.max(right_height);
            self.expect_keyword("ON")?;
            let left_key = self.column()?;
            self.expect(&TokenKind::Eq, "`=`")?;
            let right_key = self.column()?;
            Some(JoinClause {
                right,
                span: join_start.join(self.prev_span()),
                left_key,
                right_key,
            })
        } else {
            None
        };

        let mut conditions = Vec::new();
        if self.eat_keyword("WHERE") {
            conditions.push(self.condition()?);
            while self.eat_keyword("AND") {
                conditions.push(self.condition()?);
            }
        }

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.column()?);
            while self.peek().kind == TokenKind::Comma {
                self.advance();
                group_by.push(self.column()?);
            }
        }

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let column = self.column()?;
                let key_start = column.span;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey {
                    column,
                    desc,
                    span: key_start.join(self.prev_span()),
                });
                if self.peek().kind == TokenKind::Comma {
                    self.advance();
                } else {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            let kw_span = self.prev_span();
            match self.peek().kind {
                TokenKind::Number(rows) => {
                    self.advance();
                    Some(Limit {
                        rows,
                        span: kw_span.join(self.prev_span()),
                    })
                }
                _ => return Err(self.error_here("a row count")),
            }
        } else {
            None
        };

        let block = SelectBlock {
            select,
            from,
            join,
            conditions,
            group_by,
            order_by,
            limit,
            span: start.join(self.prev_span()),
        };
        Ok((block, height))
    }

    fn select_list(&mut self) -> Result<SelectList> {
        if self.peek().kind == TokenKind::Star {
            let token = self.advance();
            return Ok(SelectList::Star(token.span));
        }
        let mut columns = vec![self.column()?];
        while self.peek().kind == TokenKind::Comma {
            self.advance();
            columns.push(self.column()?);
        }
        Ok(SelectList::Columns(columns))
    }

    /// Parses a FROM item and returns it with its height in nesting levels.
    fn parse_from_item(&mut self) -> Result<(FromItem, usize)> {
        match &self.peek().kind {
            TokenKind::LParen => {
                let (open, query, height) = self.nested_query()?;
                let end = self.expect(&TokenKind::RParen, "`)`")?.span;
                let derived = FromItem::Derived {
                    query: Box::new(query),
                    span: open.span.join(end),
                };
                Ok((derived, height))
            }
            TokenKind::Ident => {
                let (name, span) = self.ident("a table name")?;
                Ok((FromItem::Table { name, span }, 0))
            }
            _ => Err(self.error_here("a table name or `(`")),
        }
    }

    fn column(&mut self) -> Result<ColumnRef> {
        let (first, first_span) = self.ident("a column name")?;
        if self.peek().kind == TokenKind::Dot {
            self.advance();
            let (name, name_span) = self.ident("a column name")?;
            Ok(ColumnRef {
                qualifier: Some((first, first_span)),
                name,
                span: first_span.join(name_span),
                resolved: None,
            })
        } else {
            Ok(ColumnRef {
                qualifier: None,
                name: first,
                span: first_span,
                resolved: None,
            })
        }
    }

    fn condition(&mut self) -> Result<Condition> {
        // A value on the left means a flipped comparison.
        if matches!(
            self.peek().kind,
            TokenKind::Number(_) | TokenKind::Minus | TokenKind::Question
        ) {
            let value = self.value()?;
            let op = self.cmp_op()?;
            let column = self.column()?;
            let span = value.span().join(column.span);
            return Ok(Condition::Cmp(CmpCond {
                column,
                op,
                value,
                flipped: true,
                span,
            }));
        }
        let column = self.column()?;
        if self.eat_keyword("BETWEEN") {
            let low = self.value()?;
            self.expect_keyword("AND")?;
            let high = self.value()?;
            let span = column.span.join(high.span());
            return Ok(Condition::Between(BetweenCond {
                column,
                low,
                high,
                span,
            }));
        }
        let op = self.cmp_op()?;
        let value = self.value()?;
        let span = column.span.join(value.span());
        Ok(Condition::Cmp(CmpCond {
            column,
            op,
            value,
            flipped: false,
            span,
        }))
    }

    fn cmp_op(&mut self) -> Result<CmpOp> {
        let op = match self.peek().kind {
            TokenKind::Eq => CmpOp::Eq,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            TokenKind::Ne => CmpOp::Ne,
            _ => return Err(self.error_here("a comparison operator")),
        };
        self.advance();
        Ok(op)
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek().kind {
            TokenKind::Question => {
                let token = self.advance();
                let index = self.next_param;
                self.next_param += 1;
                Ok(Value::Param {
                    index,
                    span: token.span,
                    bound: None,
                })
            }
            TokenKind::Minus => {
                let minus = self.advance();
                match self.peek().kind {
                    TokenKind::Number(magnitude) => {
                        let token = self.advance();
                        let span = minus.span.join(token.span);
                        if magnitude > i64::MIN.unsigned_abs() {
                            return Err(SqlError::new(ErrorKind::NumberTooLarge, span));
                        }
                        Ok(Value::Literal {
                            value: (magnitude as i128).wrapping_neg() as i64,
                            span,
                        })
                    }
                    _ => Err(self.error_here("a number")),
                }
            }
            TokenKind::Number(magnitude) => {
                let token = self.advance();
                if magnitude > i64::MAX as u64 {
                    return Err(SqlError::new(ErrorKind::NumberTooLarge, token.span));
                }
                Ok(Value::Literal {
                    value: magnitude as i64,
                    span: token.span,
                })
            }
            _ => Err(self.error_here("a value (number or `?`)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_block() {
        let q = parse(
            "SELECT user_id, region_id FROM events JOIN users ON events.user_id = users.user_id \
             WHERE event_type = 7 AND ts_hour BETWEEN 1 AND ? GROUP BY region_id \
             ORDER BY user_id DESC LIMIT 10",
        )
        .unwrap();
        let QueryExpr::Select(block) = q else {
            panic!("expected a select block")
        };
        assert!(matches!(block.select, SelectList::Columns(ref c) if c.len() == 2));
        assert!(block.join.is_some());
        assert_eq!(block.conditions.len(), 2);
        assert!(matches!(block.conditions[1], Condition::Between(_)));
        assert_eq!(block.group_by.len(), 1);
        assert_eq!(block.order_by.len(), 1);
        assert!(block.order_by[0].desc);
        assert_eq!(block.limit.unwrap().rows, 10);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            parse("select * from events where user_id = 1").unwrap(),
            parse("SELECT * FROM events WHERE user_id = 1").unwrap()
        );
    }

    #[test]
    fn unions_are_left_associative() {
        let q =
            parse("SELECT * FROM a UNION ALL SELECT * FROM b UNION ALL SELECT * FROM c").unwrap();
        let QueryExpr::Union { left, right, .. } = q else {
            panic!("expected a union")
        };
        assert!(matches!(*left, QueryExpr::Union { .. }));
        assert!(matches!(*right, QueryExpr::Select(_)));
        // Parenthesized right operand nests the other way.
        let q =
            parse("SELECT * FROM a UNION ALL (SELECT * FROM b UNION ALL SELECT * FROM c)").unwrap();
        let QueryExpr::Union { left, right, .. } = q else {
            panic!("expected a union")
        };
        assert!(matches!(*left, QueryExpr::Select(_)));
        assert!(matches!(*right, QueryExpr::Union { .. }));
    }

    #[test]
    fn params_number_lexically() {
        let q = parse("SELECT * FROM (SELECT * FROM t WHERE a = ?) WHERE b = ? AND c = ?").unwrap();
        let mut indices = Vec::new();
        q.for_each_block(&mut |block| {
            for cond in &block.conditions {
                if let Condition::Cmp(c) = cond {
                    if let Value::Param { index, .. } = c.value {
                        indices.push(index);
                    }
                }
            }
        });
        indices.sort_unstable();
        assert_eq!(indices, vec![0, 1, 2]);
    }

    #[test]
    fn flipped_comparisons_are_marked() {
        let q = parse("SELECT * FROM t WHERE 5 < a").unwrap();
        let QueryExpr::Select(block) = q else {
            panic!("expected a select block")
        };
        let Condition::Cmp(c) = &block.conditions[0] else {
            panic!("expected a comparison")
        };
        assert!(c.flipped);
        assert_eq!(c.op, CmpOp::Lt);
    }

    #[test]
    fn negative_and_extreme_literals() {
        let q = parse(&format!("SELECT * FROM t WHERE a = -{}", 1u128 << 63)).unwrap();
        let QueryExpr::Select(block) = q else {
            panic!("expected a select block")
        };
        let Condition::Cmp(c) = &block.conditions[0] else {
            panic!("expected a comparison")
        };
        assert_eq!(c.value.concrete(), Some(i64::MIN));
        assert!(parse(&format!("SELECT * FROM t WHERE a = {}", 1u64 << 63)).is_err());
    }

    #[test]
    fn trailing_input_is_rejected() {
        let err = parse("SELECT * FROM t SELECT").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::TrailingInput { .. }));
    }
}
