//! Recursive-descent parser for WL.

use crate::ast::*;
use crate::diag::{LangError, Span};
use crate::token::{lex, Spanned, Tok};

/// How deep an expression may nest. Parentheses, unary minuses,
/// reductions, calls and every operator of a chain each count one
/// level, so this bounds both the parser's recursion and the height of
/// every tree it builds — and with it the recursion of every later
/// pass over that tree (lowering, printing, dropping). A deeper program
/// is refused with a [`LangError`], never a stack overflow.
pub const MAX_DEPTH: usize = 256;

/// Parse a whole source file.
pub fn parse(src: &str) -> Result<ProgramAst, LangError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.program()
}

/// A parsed expression and its height: the nodes on its longest path
/// from the root to a leaf.
type Tall<T> = (T, usize);

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Nesting levels the parser is inside now.
    depth: usize,
}

fn too_deep(span: Span) -> LangError {
    LangError::at(span, format!("expression nested deeper than {MAX_DEPTH} levels"))
}

/// `node` over children at most `height` tall, refused at `span` when
/// that makes it taller than [`MAX_DEPTH`].
fn grow<T>(span: Span, node: T, height: usize) -> Result<Tall<T>, LangError> {
    if height >= MAX_DEPTH {
        return Err(too_deep(span));
    }
    Ok((node, height + 1))
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), LangError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            Err(LangError::at(
                self.span(),
                format!("expected {tok}, found {}", self.peek()),
            ))
        }
    }

    fn ident(&mut self) -> Result<(String, Span), LangError> {
        let span = self.span();
        match self.bump() {
            Tok::Ident(s) => Ok((s, span)),
            other => Err(LangError::at(span, format!("expected identifier, found {other}"))),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    /// Enter one nesting level, refusing past [`MAX_DEPTH`]; the caller
    /// leaves it by decrementing `depth`.
    fn descend(&mut self) -> Result<(), LangError> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep(self.span()));
        }
        self.depth += 1;
        Ok(())
    }

    fn program(&mut self) -> Result<ProgramAst, LangError> {
        let mut items = Vec::new();
        while *self.peek() != Tok::Eof {
            items.push(self.item()?);
        }
        Ok(ProgramAst { items })
    }

    fn item(&mut self) -> Result<Item, LangError> {
        if self.is_kw("const") {
            self.bump();
            let (name, span) = self.ident()?;
            self.expect(&Tok::Eq)?;
            let value = self.int_expr()?.0;
            self.expect(&Tok::Semi)?;
            Ok(Item::Const { name, value, span })
        } else if self.is_kw("region") {
            self.bump();
            let (name, span) = self.ident()?;
            self.expect(&Tok::Eq)?;
            self.expect(&Tok::LBracket)?;
            let ranges = self.range_list()?;
            self.expect(&Tok::RBracket)?;
            self.expect(&Tok::Semi)?;
            Ok(Item::Region { name, ranges, span })
        } else if self.is_kw("direction") {
            self.bump();
            let (name, span) = self.ident()?;
            self.expect(&Tok::Eq)?;
            self.expect(&Tok::LParen)?;
            let mut comps = vec![self.int_expr()?.0];
            while *self.peek() == Tok::Comma {
                self.bump();
                comps.push(self.int_expr()?.0);
            }
            self.expect(&Tok::RParen)?;
            self.expect(&Tok::Semi)?;
            Ok(Item::Direction { name, comps, span })
        } else if self.is_kw("var") {
            self.bump();
            let (first, span) = self.ident()?;
            let mut names = vec![first];
            while *self.peek() == Tok::Comma {
                self.bump();
                names.push(self.ident()?.0);
            }
            self.expect(&Tok::Colon)?;
            let region = self.region_ref()?;
            if self.is_kw("float") {
                self.bump();
            } else {
                return Err(LangError::at(
                    self.span(),
                    format!("expected `float`, found {}", self.peek()),
                ));
            }
            self.expect(&Tok::Semi)?;
            Ok(Item::Vars { names, region, span })
        } else if *self.peek() == Tok::LBracket {
            Ok(Item::Stmt(self.stmt()?))
        } else {
            Err(LangError::at(
                self.span(),
                format!(
                    "expected `const`, `region`, `direction`, `var`, or a `[region]` \
                     statement, found {}",
                    self.peek()
                ),
            ))
        }
    }

    fn region_ref(&mut self) -> Result<RegionRef, LangError> {
        let span = self.span();
        self.expect(&Tok::LBracket)?;
        // `[Name]` — a single identifier directly before `]`.
        if let Tok::Ident(name) = self.peek().clone() {
            if *self.peek2() == Tok::RBracket {
                self.bump();
                self.bump();
                return Ok(RegionRef::Named(name, span));
            }
        }
        let ranges = self.range_list()?;
        self.expect(&Tok::RBracket)?;
        Ok(RegionRef::Lit(ranges, span))
    }

    fn range_list(&mut self) -> Result<Vec<RangeAst>, LangError> {
        let mut out = vec![self.range()?];
        while *self.peek() == Tok::Comma {
            self.bump();
            out.push(self.range()?);
        }
        Ok(out)
    }

    fn range(&mut self) -> Result<RangeAst, LangError> {
        let lo = self.int_expr()?.0;
        self.expect(&Tok::DotDot)?;
        let hi = self.int_expr()?.0;
        Ok(RangeAst { lo, hi })
    }

    fn stmt(&mut self) -> Result<StmtAst, LangError> {
        let region = self.region_ref()?;
        if self.is_kw("scan") {
            let span = self.span();
            self.bump();
            let body = self.begin_end()?;
            Ok(StmtAst::Scan { region, body, span })
        } else if self.is_kw("begin") {
            let span = self.span();
            let body = self.begin_end()?;
            Ok(StmtAst::Block { region, body, span })
        } else {
            let assign = self.assign()?;
            Ok(StmtAst::Assign { region, assign })
        }
    }

    fn begin_end(&mut self) -> Result<Vec<AssignAst>, LangError> {
        if self.is_kw("begin") {
            self.bump();
        } else {
            return Err(LangError::at(
                self.span(),
                format!("expected `begin`, found {}", self.peek()),
            ));
        }
        let mut body = Vec::new();
        while !self.is_kw("end") {
            body.push(self.assign()?);
        }
        self.bump(); // end
        self.expect(&Tok::Semi)?;
        Ok(body)
    }

    fn assign(&mut self) -> Result<AssignAst, LangError> {
        let (lhs, span) = self.ident()?;
        self.expect(&Tok::Assign)?;
        let rhs = self.expr()?.0;
        self.expect(&Tok::Semi)?;
        Ok(AssignAst { lhs, rhs, span })
    }

    // ---- value expressions -------------------------------------------

    fn expr(&mut self) -> Result<Tall<ExprAst>, LangError> {
        let (mut lhs, mut height) = self.term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => '+',
                Tok::Minus => '-',
                _ => break,
            };
            let span = self.span();
            self.bump();
            let (rhs, h) = self.term()?;
            let bin = ExprAst::Bin(op, Box::new(lhs), Box::new(rhs));
            (lhs, height) = grow(span, bin, height.max(h))?;
        }
        Ok((lhs, height))
    }

    fn term(&mut self) -> Result<Tall<ExprAst>, LangError> {
        let (mut lhs, mut height) = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => '*',
                Tok::Slash => '/',
                _ => break,
            };
            let span = self.span();
            self.bump();
            let (rhs, h) = self.unary()?;
            let bin = ExprAst::Bin(op, Box::new(lhs), Box::new(rhs));
            (lhs, height) = grow(span, bin, height.max(h))?;
        }
        Ok((lhs, height))
    }

    /// Every recursion of the expression grammar passes through here.
    /// A level's frames stay small (a name's arm is out of line):
    /// [`MAX_DEPTH`] levels of parentheses take about 1.5 MB of stack
    /// unoptimised and under 0.4 MB optimised, inside the 2 MiB a
    /// spawned thread gets.
    fn unary(&mut self) -> Result<Tall<ExprAst>, LangError> {
        self.descend()?;
        let span = self.span();
        let out = match self.peek() {
            Tok::Minus => {
                self.bump();
                self.unary().and_then(|(e, h)| grow(span, ExprAst::Neg(Box::new(e)), h))
            }
            _ => self.primary(),
        };
        self.depth -= 1;
        out
    }

    fn primary(&mut self) -> Result<Tall<ExprAst>, LangError> {
        let span = self.span();
        match self.bump() {
            // `+<< e` — sum reduction.
            Tok::Plus if *self.peek() == Tok::Shl => {
                self.bump();
                self.reduce("+".into(), span)
            }
            Tok::Int(v) => Ok((ExprAst::Num(v as f64), 1)),
            Tok::Float(v) => Ok((ExprAst::Num(v), 1)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => self.named(name, span),
            other => Err(LangError::at(span, format!("expected an expression, found {other}"))),
        }
    }

    /// The argument of a reduction `op<<`, whose operator is consumed.
    fn reduce(&mut self, op: String, span: Span) -> Result<Tall<ExprAst>, LangError> {
        let (arg, h) = self.unary()?;
        grow(span, ExprAst::Reduce { op, arg: Box::new(arg), span }, h)
    }

    /// What follows a name: a `min<<` / `max<<` reduction, an intrinsic
    /// call, or a plain, primed or shifted reference.
    #[inline(never)]
    fn named(&mut self, name: String, span: Span) -> Result<Tall<ExprAst>, LangError> {
        if (name == "min" || name == "max") && *self.peek() == Tok::Shl {
            self.bump();
            return self.reduce(name, span);
        }
        if *self.peek() == Tok::LParen {
            self.bump();
            let (first, mut height) = self.expr()?;
            let mut args = vec![first];
            while *self.peek() == Tok::Comma {
                self.bump();
                let (arg, h) = self.expr()?;
                args.push(arg);
                height = height.max(h);
            }
            self.expect(&Tok::RParen)?;
            return grow(span, ExprAst::Call { func: name, args, span }, height);
        }
        let mut primed = false;
        if *self.peek() == Tok::Prime {
            self.bump();
            primed = true;
        }
        let mut dir = None;
        if *self.peek() == Tok::At {
            self.bump();
            dir = Some(self.ident()?.0);
        }
        Ok((ExprAst::Ref { name, primed, dir, span }, 1))
    }

    // ---- integer expressions -----------------------------------------

    fn int_expr(&mut self) -> Result<Tall<IntExpr>, LangError> {
        let (mut lhs, mut height) = self.int_term()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => '+',
                Tok::Minus => '-',
                _ => break,
            };
            let span = self.span();
            self.bump();
            let (rhs, h) = self.int_term()?;
            let bin = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
            (lhs, height) = grow(span, bin, height.max(h))?;
        }
        Ok((lhs, height))
    }

    fn int_term(&mut self) -> Result<Tall<IntExpr>, LangError> {
        let (mut lhs, mut height) = self.int_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => '*',
                Tok::Slash => '/',
                _ => break,
            };
            let span = self.span();
            self.bump();
            let (rhs, h) = self.int_unary()?;
            let bin = IntExpr::Bin(op, Box::new(lhs), Box::new(rhs));
            (lhs, height) = grow(span, bin, height.max(h))?;
        }
        Ok((lhs, height))
    }

    /// Every recursion of the integer grammar passes through here.
    fn int_unary(&mut self) -> Result<Tall<IntExpr>, LangError> {
        self.descend()?;
        let span = self.span();
        let out = match self.bump() {
            Tok::Minus => {
                self.int_unary().and_then(|(e, h)| grow(span, IntExpr::Neg(Box::new(e)), h))
            }
            Tok::Int(v) => Ok((IntExpr::Lit(v), 1)),
            Tok::Ident(name) => Ok((IntExpr::Const(name, span), 1)),
            Tok::LParen => self.int_expr().and_then(|e| self.expect(&Tok::RParen).map(|()| e)),
            other => Err(LangError::at(
                span,
                format!("expected an integer expression, found {other}"),
            )),
        };
        self.depth -= 1;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_declarations() {
        let src = "
            const n = 512;
            region Big = [1..n, 1..n];
            direction north = (-1, 0);
            var aa, d : [Big] float;
        ";
        let ast = parse(src).unwrap();
        assert_eq!(ast.items.len(), 4);
        match &ast.items[0] {
            Item::Const { name, .. } => assert_eq!(name, "n"),
            other => panic!("{other:?}"),
        }
        match &ast.items[3] {
            Item::Vars { names, .. } => assert_eq!(names, &["aa", "d"]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_scan_block() {
        let src = "
            region R = [2..6, 2..6];
            direction north = (-1, 0);
            var r, aa, d, dd : [1..8, 1..8] float;
            [R] scan begin
                r := aa * d'@north;
                d := 1.0 / (dd - aa@north * r);
            end;
        ";
        let ast = parse(src).unwrap();
        let Item::Stmt(StmtAst::Scan { body, .. }) = &ast.items[3] else {
            panic!("expected scan block");
        };
        assert_eq!(body.len(), 2);
        let ExprAst::Bin('*', _, rhs) = &body[0].rhs else { panic!() };
        assert_eq!(
            **rhs,
            ExprAst::Ref {
                name: "d".into(),
                primed: true,
                dir: Some("north".into()),
                span: crate::diag::Span { line: 6, col: 27 }
            }
        );
    }

    #[test]
    fn parse_region_literal_statement() {
        let ast = parse("var a : [1..4, 1..4] float; [2..4, 1..4] a := a@(0,0);");
        // `@(0,0)` is not valid syntax (directions are named) — expect err.
        assert!(ast.is_err());
        let ast = parse(
            "var a : [1..4, 1..4] float; direction n = (-1,0); [2..4, 1..4] a := a@n;",
        )
        .unwrap();
        assert_eq!(ast.items.len(), 3);
    }

    #[test]
    fn parse_reductions() {
        let src = "var a, s : [1..4] float; [1..4] s := +<< a; [1..4] s := max<< abs(a);";
        let ast = parse(src).unwrap();
        let Item::Stmt(StmtAst::Assign { assign, .. }) = &ast.items[1] else { panic!() };
        assert!(matches!(&assign.rhs, ExprAst::Reduce { op, .. } if op == "+"));
        let Item::Stmt(StmtAst::Assign { assign, .. }) = &ast.items[2] else { panic!() };
        let ExprAst::Reduce { op, arg, .. } = &assign.rhs else { panic!() };
        assert_eq!(op, "max");
        assert!(matches!(&**arg, ExprAst::Call { func, .. } if func == "abs"));
    }

    #[test]
    fn min_call_vs_min_reduce() {
        let src = "var a, b : [1..4] float; [1..4] a := min(a, b); [1..4] a := min<< b;";
        let ast = parse(src).unwrap();
        let Item::Stmt(StmtAst::Assign { assign, .. }) = &ast.items[1] else { panic!() };
        assert!(matches!(&assign.rhs, ExprAst::Call { .. }));
        let Item::Stmt(StmtAst::Assign { assign, .. }) = &ast.items[2] else { panic!() };
        assert!(matches!(&assign.rhs, ExprAst::Reduce { .. }));
    }

    #[test]
    fn precedence_and_parens() {
        let src = "var a : [1..4] float; [1..4] a := 1 + 2 * 3;";
        let ast = parse(src).unwrap();
        let Item::Stmt(StmtAst::Assign { assign, .. }) = &ast.items[1] else { panic!() };
        let ExprAst::Bin('+', l, r) = &assign.rhs else { panic!() };
        assert_eq!(**l, ExprAst::Num(1.0));
        assert!(matches!(&**r, ExprAst::Bin('*', _, _)));
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse("region R = [1..2;").unwrap_err();
        assert!(err.span.is_some());
        assert!(err.to_string().contains("expected"));
    }

    /// Nesting past [`MAX_DEPTH`] is refused in-process, however deep:
    /// parentheses, unary minuses and operator chains, in value and in
    /// integer expressions alike.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let stmt = |rhs: String| format!("var a : [1..4] float; [1..4] a := {rhs};");
        let parens = |k: usize| format!("{}1.0{}", "(".repeat(k), ")".repeat(k));
        for k in [2_000, 200_000] {
            let err = parse(&stmt(parens(k))).unwrap_err();
            assert!(err.to_string().contains("nested deeper than 256"), "{k}: {err}");
        }
        let err = parse(&stmt(format!("{}a", "- ".repeat(100_000)))).unwrap_err();
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let chain = vec!["a"; 100_000].join(" + ");
        assert!(parse(&stmt(chain)).is_err(), "a 100,000-term chain is 99,999 levels tall");
        let int = format!("const n = {}1{};", "(".repeat(2_000), ")".repeat(2_000));
        assert!(parse(&int).unwrap_err().to_string().contains("nested deeper"));

        // Up to the bound, it parses.
        assert!(parse(&stmt(parens(MAX_DEPTH - 1))).is_ok());
        assert!(parse(&stmt(vec!["a"; MAX_DEPTH].join(" * "))).is_ok());
        assert!(parse(&stmt(vec!["a"; MAX_DEPTH + 1].join(" * "))).is_err());
    }

    #[test]
    fn named_region_in_statement_position() {
        let src = "region R = [1..4]; var a : [R] float; [R] a := 1.0;";
        let ast = parse(src).unwrap();
        let Item::Stmt(StmtAst::Assign { region, .. }) = &ast.items[2] else { panic!() };
        assert!(matches!(region, RegionRef::Named(n, _) if n == "R"));
    }
}
