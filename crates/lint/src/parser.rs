//! Tolerant recursive-descent parser for the Rust subset the workspace
//! uses.
//!
//! Consumes the token stream from [`lexer`](crate::lexer) (comments,
//! strings and lifetimes already stripped) and produces the
//! [`ast`](crate::ast) statement/expression trees the fact extractor
//! walks. The parser is *tolerant*: any construct it does not model
//! collapses into [`Expr::Opaque`] and the cursor always advances, so a
//! syntax shape outside the subset degrades analysis precision for that
//! expression instead of aborting the file.
//!
//! Zero dependencies, no `syn` — the grammar is hand-rolled because the
//! analyzer must keep working in the offline CI image and because the
//! subset is small: items, `impl`/`trait`/`mod` nesting, `fn` signatures,
//! and expression bodies with calls, method calls, indexing, macros,
//! closures, casts, struct literals and the control-flow forms.

use crate::ast::{Arm, BinOp, Binding, Block, Expr, LetStmt, PFn, Param, ParsedFile, Stmt};
use crate::lexer::{Tok, TokKind};

/// Parse one file's token stream into its function items.
pub fn parse_file(toks: &[Tok]) -> ParsedFile {
    let mut p = Parser {
        toks,
        pos: 0,
        fns: Vec::new(),
    };
    p.items(None, false, false);
    ParsedFile { fns: p.fns }
}

struct Parser<'t> {
    toks: &'t [Tok],
    pos: usize,
    fns: Vec<PFn>,
}

const PRIMITIVES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "bool", "char",
];

impl<'t> Parser<'t> {
    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.toks.get(self.pos + off)
    }

    fn line(&self) -> u32 {
        self.peek().map(|t| t.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<&'t Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, s: &str) -> bool {
        self.peek().map(|t| t.is_punct(s)).unwrap_or(false)
    }

    fn at_punct2(&self, a: &str, b: &str) -> bool {
        self.at_punct(a) && self.peek_at(1).map(|t| t.is_punct(b)).unwrap_or(false)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().map(|t| t.is_ident(s)).unwrap_or(false)
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// `::` is two adjacent `:` tokens.
    fn at_path_sep(&self) -> bool {
        self.at_punct2(":", ":")
    }

    // ---- attributes ----------------------------------------------------

    /// Skip one `#[...]` / `#![...]` attribute; reports whether it was
    /// `#[cfg(test)]` or `#[test]`.
    fn skip_attr(&mut self) -> bool {
        debug_assert!(self.at_punct("#"));
        self.pos += 1;
        self.eat_punct("!");
        let mut is_test = false;
        if self.at_punct("[") {
            let mut depth = 0i32;
            let start = self.pos;
            while let Some(t) = self.peek() {
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        break;
                    }
                }
                self.pos += 1;
            }
            let inner = &self.toks[start..self.pos.min(self.toks.len())];
            // `#[test]` or `#[cfg(test)]` / `#[cfg(all(test, ...))]`.
            if inner.len() == 3 && inner[1].is_ident("test") {
                is_test = true;
            }
            if inner.iter().any(|t| t.is_ident("cfg")) && inner.iter().any(|t| t.is_ident("test")) {
                is_test = true;
            }
        }
        is_test
    }

    /// Skip a run of attributes; true if any marked test code.
    fn skip_attrs(&mut self) -> bool {
        let mut test = false;
        while self.at_punct("#") {
            test |= self.skip_attr();
        }
        test
    }

    // ---- type collection -----------------------------------------------

    /// Skip a balanced `<...>` group starting at `<`. `->` arrows inside
    /// (`Fn() -> T`) do not close the group.
    fn skip_angles(&mut self) {
        debug_assert!(self.at_punct("<"));
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.peek() {
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            prev_dash = t.is_punct("-");
            self.pos += 1;
        }
    }

    /// Collect a type: consumes tokens until a stop punct or stop word at
    /// bracket depth zero. Adjacent word tokens are joined with a single
    /// space so `&mut MachineConfig` and `impl Fn(&mut X,u32)` stay
    /// readable and splittable.
    fn collect_type(&mut self, stop_puncts: &[&str], stop_words: &[&str]) -> String {
        let mut out = String::new();
        let mut depth = 0i32;
        let mut prev_dash = false;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ">" if !prev_dash => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    s if depth == 0 && stop_puncts.contains(&s) => break,
                    _ => {}
                }
            } else if depth == 0 && stop_words.iter().any(|w| t.is_ident(w)) {
                break;
            }
            push_tok(&mut out, t);
            prev_dash = t.is_punct("-");
            self.pos += 1;
        }
        out
    }

    /// Collect the type after `as`. Greedy over path/ref/pointer/group
    /// syntax; a `<` after a primitive is a comparison, not generics.
    fn collect_cast_type(&mut self) -> String {
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(t) if t.is_punct("&") || t.is_punct("*") => {
                    push_tok(&mut out, t);
                    self.pos += 1;
                }
                Some(t) if t.is_ident("const") || t.is_ident("mut") || t.is_ident("dyn") => {
                    push_tok(&mut out, t);
                    self.pos += 1;
                }
                Some(t) if t.kind == TokKind::Ident => {
                    let prim = PRIMITIVES.contains(&t.text.as_str());
                    push_tok(&mut out, t);
                    self.pos += 1;
                    // Path continuation / generic arguments.
                    if self.at_path_sep() {
                        out.push_str("::");
                        self.pos += 2; // next segment via the outer loop
                    } else if self.at_punct("<") && !prim {
                        let start = self.pos;
                        self.skip_angles();
                        for t in &self.toks[start..self.pos] {
                            push_tok(&mut out, t);
                        }
                        return out;
                    } else {
                        return out;
                    }
                }
                Some(t) if t.is_punct("(") || t.is_punct("[") => {
                    // Grouped type: consume balanced.
                    let close = if t.is_punct("(") { ")" } else { "]" };
                    let open = t.text.clone();
                    let mut depth = 0i32;
                    while let Some(t) = self.peek() {
                        if t.is_punct(&open) {
                            depth += 1;
                        } else if t.is_punct(close) {
                            depth -= 1;
                            push_tok(&mut out, t);
                            self.pos += 1;
                            if depth == 0 {
                                break;
                            }
                            continue;
                        }
                        push_tok(&mut out, t);
                        self.pos += 1;
                    }
                    return out;
                }
                _ => return out,
            }
        }
    }

    // ---- items ---------------------------------------------------------

    /// Parse items until EOF or (when `stop_at_brace`) the closing `}` of
    /// the enclosing block.
    fn items(&mut self, self_ty: Option<&str>, in_test: bool, stop_at_brace: bool) {
        loop {
            if self.peek().is_none() {
                return;
            }
            if self.at_punct("}") {
                if stop_at_brace {
                    self.pos += 1;
                }
                return;
            }
            let attr_test = self.skip_attrs();
            // Visibility.
            if self.eat_ident("pub") && self.at_punct("(") {
                self.skip_balanced("(", ")");
            }
            // Fn qualifiers.
            let mut saw_const = false;
            loop {
                if self.at_ident("const") && self.peek_at(1).map(|t| t.is_ident("fn")) == Some(true)
                {
                    self.pos += 1;
                    saw_const = true;
                } else if self.at_ident("unsafe") || self.at_ident("async") {
                    self.pos += 1;
                } else if self.at_ident("extern") {
                    self.pos += 1;
                    // The ABI string, as in `extern "C" fn`.
                    if self.peek().is_some_and(|t| t.kind == TokKind::Lit) {
                        self.pos += 1;
                    }
                } else {
                    break;
                }
            }
            let _ = saw_const;
            match self.peek() {
                Some(t) if t.is_ident("fn") => {
                    let f = self.parse_fn(self_ty, in_test || attr_test);
                    self.fns.push(f);
                }
                Some(t) if t.is_ident("mod") => {
                    self.pos += 1;
                    self.bump(); // name
                    if self.eat_punct("{") {
                        // A module resets the Self type; cfg(test) is
                        // inherited by everything inside.
                        self.items(None, in_test || attr_test, true);
                    } else {
                        self.eat_punct(";");
                    }
                }
                Some(t) if t.is_ident("impl") => {
                    self.pos += 1;
                    if self.at_punct("<") {
                        self.skip_angles();
                    }
                    let first = self.impl_path();
                    let ty = if self.eat_ident("for") {
                        self.impl_path()
                    } else {
                        first
                    };
                    // Skip where clause up to the body.
                    while !self.at_punct("{") && self.peek().is_some() {
                        if self.at_punct("<") {
                            self.skip_angles();
                        } else {
                            self.pos += 1;
                        }
                    }
                    if self.eat_punct("{") {
                        self.items(Some(&ty), in_test || attr_test, true);
                    }
                }
                Some(t) if t.is_ident("trait") => {
                    self.pos += 1;
                    let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
                    while !self.at_punct("{") && self.peek().is_some() {
                        if self.at_punct("<") {
                            self.skip_angles();
                        } else {
                            self.pos += 1;
                        }
                    }
                    if self.eat_punct("{") {
                        self.items(Some(&name), in_test || attr_test, true);
                    }
                }
                Some(t)
                    if t.is_ident("struct")
                        || t.is_ident("enum")
                        || t.is_ident("union")
                        || t.is_ident("macro_rules") =>
                {
                    self.skip_item_with_braces();
                }
                Some(t)
                    if t.is_ident("const")
                        || t.is_ident("static")
                        || t.is_ident("type")
                        || t.is_ident("use") =>
                {
                    self.skip_to_semi();
                }
                Some(_) => {
                    self.pos += 1;
                }
                None => return,
            }
        }
    }

    /// The type path in an `impl` header: segments plus one trailing
    /// generic group, reduced to the head identifier (`Simulator<'cfg>` →
    /// `Simulator`, `codec::Codec` → `Codec`).
    fn impl_path(&mut self) -> String {
        let mut last = String::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokKind::Ident && !t.is_ident("for") => {
                    last = t.text.clone();
                    self.pos += 1;
                    if self.at_punct("<") {
                        self.skip_angles();
                    }
                    if self.at_path_sep() {
                        self.pos += 2;
                        continue;
                    }
                    break;
                }
                Some(t) if t.is_punct("&") || t.is_punct("(") || t.is_punct("[") => {
                    // `impl Trait for &T` / tuple impls — rare; take the
                    // inner head by skipping the sigil.
                    self.pos += 1;
                }
                _ => break,
            }
        }
        last
    }

    /// Skip an item that may end in `;` or a balanced `{...}` /
    /// tuple-struct `(...);`.
    fn skip_item_with_braces(&mut self) {
        while let Some(t) = self.peek() {
            if t.is_punct("{") {
                self.skip_balanced("{", "}");
                return;
            }
            if t.is_punct("(") {
                self.skip_balanced("(", ")");
                self.eat_punct(";");
                return;
            }
            if t.is_punct(";") {
                self.pos += 1;
                return;
            }
            if t.is_punct("<") {
                self.skip_angles();
                continue;
            }
            self.pos += 1;
        }
    }

    /// Skip to the `;` ending a const/static/type/use item, tolerating
    /// nested braces (const arrays of struct literals).
    fn skip_to_semi(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => depth -= 1,
                    ";" if depth <= 0 => {
                        self.pos += 1;
                        return;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    fn skip_balanced(&mut self, open: &str, close: &str) {
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    // ---- functions -----------------------------------------------------

    fn parse_fn(&mut self, self_ty: Option<&str>, in_test: bool) -> PFn {
        let decl_line = self.line();
        self.eat_ident("fn");
        let name = self.bump().map(|t| t.text.clone()).unwrap_or_default();
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.eat_punct("(") {
            loop {
                self.skip_attrs();
                if self.eat_punct(")") || self.peek().is_none() {
                    break;
                }
                if self.eat_punct(",") {
                    continue;
                }
                // `&self` / `&mut self` / `mut self` / `self: ...`.
                while self.at_punct("&") || self.at_ident("mut") {
                    self.pos += 1;
                }
                if self.eat_ident("self") {
                    if self.eat_punct(":") {
                        self.collect_type(&[",", ")"], &[]);
                    }
                    params.push(Param {
                        name: "self".into(),
                        ty: String::new(),
                    });
                    continue;
                }
                // Pattern up to the `:` at depth zero, then the type.
                let pat_start = self.pos;
                let mut depth = 0i32;
                while let Some(t) = self.peek() {
                    if t.kind == TokKind::Punct {
                        match t.text.as_str() {
                            "(" | "[" | "<" | "{" => depth += 1,
                            ")" if depth == 0 => break,
                            ")" | "]" | ">" | "}" => depth -= 1,
                            ":" if depth == 0 => break,
                            "," if depth == 0 => break,
                            _ => {}
                        }
                    }
                    self.pos += 1;
                }
                let pat: Vec<&Tok> = self.toks[pat_start..self.pos].iter().collect();
                let pname = pat
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref"))
                    .map(|t| t.text.clone())
                    .unwrap_or_default();
                let ty = if self.eat_punct(":") {
                    self.collect_type(&[",", ")"], &[])
                } else {
                    String::new()
                };
                params.push(Param { name: pname, ty });
            }
        }
        let mut ret = String::new();
        if self.at_punct2("-", ">") {
            self.pos += 2;
            ret = self.collect_type(&["{", ";"], &["where"]);
        }
        if self.at_ident("where") {
            // Skip the where clause; `Fn(..)` bounds hide in angles.
            while !self.at_punct("{") && !self.at_punct(";") && self.peek().is_some() {
                if self.at_punct("<") {
                    self.skip_angles();
                } else {
                    self.pos += 1;
                }
            }
        }
        let (body, end_line) = if self.at_punct("{") {
            let b = self.parse_block();
            let last = self.pos.saturating_sub(1).min(self.toks.len() - 1);
            (b, self.toks[last].line)
        } else {
            self.eat_punct(";");
            (Vec::new(), decl_line)
        };
        PFn {
            name,
            self_ty: self_ty.map(str::to_string),
            decl_line,
            end_line,
            in_test,
            params,
            ret,
            body,
        }
    }

    // ---- statements ----------------------------------------------------

    /// Parse `{ ... }`; the cursor must be at the `{`.
    fn parse_block(&mut self) -> Block {
        let mut stmts = Vec::new();
        if !self.eat_punct("{") {
            return stmts;
        }
        loop {
            match self.peek() {
                None => return stmts,
                Some(t) if t.is_punct("}") => {
                    self.pos += 1;
                    return stmts;
                }
                Some(t) if t.is_punct(";") => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    if let Some(s) = self.parse_stmt() {
                        stmts.push(s);
                    }
                    if self.pos == before {
                        self.pos += 1; // never stall
                    }
                }
            }
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        let test_attr = self.skip_attrs();
        match self.peek() {
            Some(t) if t.is_ident("let") => Some(Stmt::Let(self.parse_let())),
            Some(t) if t.is_ident("fn") => {
                // Nested fn: recorded as its own item.
                let f = self.parse_fn(None, test_attr);
                self.fns.push(f);
                None
            }
            Some(t)
                if t.is_ident("struct")
                    || t.is_ident("enum")
                    || t.is_ident("impl")
                    || t.is_ident("mod")
                    || t.is_ident("macro_rules") =>
            {
                self.skip_item_with_braces();
                None
            }
            Some(t)
                if t.is_ident("const")
                    || t.is_ident("static")
                    || t.is_ident("use")
                    || t.is_ident("type") =>
            {
                self.skip_to_semi();
                None
            }
            Some(_) => {
                let e = self.parse_expr(false);
                self.eat_punct(";");
                Some(Stmt::Expr(e))
            }
            None => None,
        }
    }

    fn parse_let(&mut self) -> LetStmt {
        let line = self.line();
        self.eat_ident("let");
        // Pattern up to `:` / `=` / `;` at depth zero.
        let pat_start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    ":" | "=" | ";" if depth == 0 => break,
                    _ => {}
                }
            }
            self.pos += 1;
        }
        let bindings = extract_bindings(&self.toks[pat_start..self.pos]);
        let ty = if self.eat_punct(":") {
            Some(self.collect_type(&["=", ";"], &[]))
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            Some(self.parse_expr(false))
        } else {
            None
        };
        let else_block = if self.eat_ident("else") {
            Some(self.parse_block())
        } else {
            None
        };
        self.eat_punct(";");
        LetStmt {
            bindings,
            ty,
            init,
            else_block,
            line,
        }
    }

    // ---- expressions ---------------------------------------------------

    /// `no_struct`: in `if`/`while`/`match`/`for` headers a `{` opens the
    /// body, never a struct literal.
    fn parse_expr(&mut self, no_struct: bool) -> Expr {
        self.parse_assign(no_struct)
    }

    fn parse_assign(&mut self, ns: bool) -> Expr {
        let lhs = self.parse_range(ns);
        let line = self.line();
        // Plain `=` (not `==`, not `=>`).
        if self.at_punct("=")
            && !self.peek_at(1).map(|t| t.is_punct("=")).unwrap_or(false)
            && !self.peek_at(1).map(|t| t.is_punct(">")).unwrap_or(false)
        {
            self.pos += 1;
            let rhs = self.parse_assign(ns);
            return Expr::Assign {
                op: None,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        // Compound assignment: op followed by `=`.
        let compound = match self.peek() {
            Some(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                "+" => Some((1, BinOp::Add)),
                "-" => Some((1, BinOp::Sub)),
                "*" => Some((1, BinOp::Mul)),
                "/" => Some((1, BinOp::Div)),
                "%" => Some((1, BinOp::Rem)),
                "&" | "|" | "^" => Some((1, BinOp::Other)),
                "<" if self.at_punct2("<", "<") => Some((2, BinOp::Other)),
                ">" if self.at_punct2(">", ">") => Some((2, BinOp::Other)),
                _ => None,
            },
            _ => None,
        };
        if let Some((oplen, op)) = compound {
            if self
                .peek_at(oplen)
                .map(|t| t.is_punct("="))
                .unwrap_or(false)
                && !self
                    .peek_at(oplen + 1)
                    .map(|t| t.is_punct("="))
                    .unwrap_or(false)
            {
                self.pos += oplen + 1;
                let rhs = self.parse_assign(ns);
                return Expr::Assign {
                    op: Some(op),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
            }
        }
        lhs
    }

    fn parse_range(&mut self, ns: bool) -> Expr {
        if self.at_punct2(".", ".") {
            self.pos += 2;
            self.eat_punct("=");
            let hi = if self.range_operand_follows() {
                Some(Box::new(self.parse_or(ns)))
            } else {
                None
            };
            return Expr::Range { lo: None, hi };
        }
        let lo = self.parse_or(ns);
        if self.at_punct2(".", ".") {
            self.pos += 2;
            self.eat_punct("=");
            let hi = if self.range_operand_follows() {
                Some(Box::new(self.parse_or(ns)))
            } else {
                None
            };
            return Expr::Range {
                lo: Some(Box::new(lo)),
                hi,
            };
        }
        lo
    }

    fn range_operand_follows(&self) -> bool {
        match self.peek() {
            Some(t) if t.kind == TokKind::Punct => {
                matches!(t.text.as_str(), "(" | "&" | "*" | "-" | "!" | "[")
            }
            Some(_) => true,
            None => false,
        }
    }

    fn parse_or(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_and(ns);
        while self.at_punct2("|", "|") {
            let line = self.line();
            self.pos += 2;
            let rhs = self.parse_and(ns);
            lhs = Expr::Binary {
                op: BinOp::Other,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_and(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_cmp(ns);
        while self.at_punct2("&", "&") {
            let line = self.line();
            self.pos += 2;
            let rhs = self.parse_cmp(ns);
            lhs = Expr::Binary {
                op: BinOp::Other,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_cmp(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_bitor(ns);
        loop {
            let line = self.line();
            let (take, op) = if self.at_punct2("=", "=") || self.at_punct2("!", "=") {
                (2, BinOp::Cmp)
            } else if self.at_punct2("<", "=") {
                (2, BinOp::Le)
            } else if self.at_punct2(">", "=") {
                (2, BinOp::Ge)
            } else if self.at_punct("<") && !self.at_punct2("<", "<") {
                (1, BinOp::Lt)
            } else if self.at_punct(">") && !self.at_punct2(">", ">") {
                (1, BinOp::Gt)
            } else {
                break;
            };
            self.pos += take;
            let rhs = self.parse_bitor(ns);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_bitor(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_bitxor(ns);
        while self.at_punct("|")
            && !self.at_punct2("|", "|")
            && !self.peek_at(1).map(|t| t.is_punct("=")).unwrap_or(false)
        {
            let line = self.line();
            self.pos += 1;
            let rhs = self.parse_bitxor(ns);
            lhs = Expr::Binary {
                op: BinOp::Other,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_bitxor(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_bitand(ns);
        while self.at_punct("^") && !self.peek_at(1).map(|t| t.is_punct("=")).unwrap_or(false) {
            let line = self.line();
            self.pos += 1;
            let rhs = self.parse_bitand(ns);
            lhs = Expr::Binary {
                op: BinOp::Other,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_bitand(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_shift(ns);
        while self.at_punct("&")
            && !self.at_punct2("&", "&")
            && !self.peek_at(1).map(|t| t.is_punct("=")).unwrap_or(false)
        {
            let line = self.line();
            self.pos += 1;
            let rhs = self.parse_shift(ns);
            lhs = Expr::Binary {
                op: BinOp::Other,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
        lhs
    }

    fn parse_shift(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_add(ns);
        loop {
            let line = self.line();
            if (self.at_punct2("<", "<") || self.at_punct2(">", ">"))
                && !self.peek_at(2).map(|t| t.is_punct("=")).unwrap_or(false)
            {
                self.pos += 2;
                let rhs = self.parse_add(ns);
                lhs = Expr::Binary {
                    op: BinOp::Other,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                };
            } else {
                return lhs;
            }
        }
    }

    fn parse_add(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_mul(ns);
        loop {
            let line = self.line();
            let op = if self.at_punct("+") {
                BinOp::Add
            } else if self.at_punct("-") {
                BinOp::Sub
            } else {
                return lhs;
            };
            if self.peek_at(1).map(|t| t.is_punct("=")).unwrap_or(false)
                || (op == BinOp::Sub && self.peek_at(1).map(|t| t.is_punct(">")).unwrap_or(false))
            {
                return lhs; // `+=` / `-=` / `->`
            }
            self.pos += 1;
            let rhs = self.parse_mul(ns);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    fn parse_mul(&mut self, ns: bool) -> Expr {
        let mut lhs = self.parse_cast(ns);
        loop {
            let line = self.line();
            let op = if self.at_punct("*") {
                BinOp::Mul
            } else if self.at_punct("/") {
                BinOp::Div
            } else if self.at_punct("%") {
                BinOp::Rem
            } else {
                return lhs;
            };
            if self.peek_at(1).map(|t| t.is_punct("=")).unwrap_or(false) {
                return lhs; // compound assignment
            }
            self.pos += 1;
            let rhs = self.parse_cast(ns);
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                line,
            };
        }
    }

    fn parse_cast(&mut self, ns: bool) -> Expr {
        let mut e = self.parse_unary(ns);
        while self.at_ident("as") {
            let line = self.line();
            self.pos += 1;
            let ty = self.collect_cast_type();
            e = Expr::Cast {
                expr: Box::new(e),
                ty,
                line,
            };
        }
        e
    }

    fn parse_unary(&mut self, ns: bool) -> Expr {
        if self.at_punct("&") && !self.at_punct2("&", "&") {
            self.pos += 1;
            let mutable = self.eat_ident("mut");
            let inner = Box::new(self.parse_unary(ns));
            return if mutable {
                Expr::MutBorrow(inner)
            } else {
                Expr::Unary(inner)
            };
        }
        if self.at_punct2("&", "&") {
            // `&&x` in expression-head position: double reference.
            self.pos += 2;
            let mutable = self.eat_ident("mut");
            let inner = Box::new(self.parse_unary(ns));
            return if mutable {
                Expr::MutBorrow(inner)
            } else {
                Expr::Unary(inner)
            };
        }
        if self.at_punct("*") || self.at_punct("-") || self.at_punct("!") {
            self.pos += 1;
            return Expr::Unary(Box::new(self.parse_unary(ns)));
        }
        self.parse_postfix(ns)
    }

    fn parse_postfix(&mut self, ns: bool) -> Expr {
        let mut e = self.parse_primary(ns);
        loop {
            let line = self.line();
            if self.at_punct(".") && !self.at_punct2(".", ".") {
                match self.peek_at(1) {
                    Some(t) if t.kind == TokKind::Ident => {
                        let name = t.text.clone();
                        self.pos += 2;
                        // Turbofish.
                        if self.at_path_sep()
                            && self.peek_at(2).map(|t| t.is_punct("<")).unwrap_or(false)
                        {
                            self.pos += 2;
                            self.skip_angles();
                        }
                        if self.at_punct("(") {
                            let args = self.parse_call_args();
                            e = Expr::MethodCall {
                                recv: Box::new(e),
                                name,
                                args,
                                line,
                            };
                        } else {
                            e = Expr::Field {
                                base: Box::new(e),
                                name,
                                line,
                            };
                        }
                    }
                    Some(t) if t.kind == TokKind::Num => {
                        let name = t.text.clone();
                        self.pos += 2;
                        e = Expr::Field {
                            base: Box::new(e),
                            name,
                            line,
                        };
                    }
                    _ => {
                        self.pos += 1; // stray dot
                    }
                }
            } else if self.at_punct("(") {
                let args = self.parse_call_args();
                e = Expr::Call {
                    callee: Box::new(e),
                    args,
                    line,
                };
            } else if self.at_punct("[") {
                self.pos += 1;
                let idx = self.parse_expr(false);
                self.eat_punct("]");
                e = Expr::Index {
                    base: Box::new(e),
                    index: Box::new(idx),
                    line,
                };
            } else if self.at_punct("?") {
                self.pos += 1;
                e = Expr::Try(Box::new(e));
            } else {
                return e;
            }
        }
    }

    /// `( a, b, c )` — cursor on the `(`.
    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.eat_punct("(");
        loop {
            match self.peek() {
                None => return args,
                Some(t) if t.is_punct(")") => {
                    self.pos += 1;
                    return args;
                }
                Some(t) if t.is_punct(",") => self.pos += 1,
                _ => {
                    let before = self.pos;
                    args.push(self.parse_expr(false));
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    fn parse_primary(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let t = match self.peek() {
            Some(t) => t,
            None => return Expr::Opaque(line),
        };
        if t.kind == TokKind::Lit {
            self.pos += 1;
            return Expr::Lit(line);
        }
        if t.kind == TokKind::Num {
            let text = t.text.clone();
            self.pos += 1;
            return match parse_int_literal(&text) {
                Some(val) => Expr::Num { val, line },
                None => Expr::Lit(line),
            };
        }
        if t.kind == TokKind::Punct {
            return match t.text.as_str() {
                "(" => {
                    self.pos += 1;
                    let mut elems = Vec::new();
                    let mut trailing_comma = false;
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.is_punct(")") => {
                                self.pos += 1;
                                break;
                            }
                            Some(t) if t.is_punct(",") => {
                                trailing_comma = true;
                                self.pos += 1;
                            }
                            _ => {
                                let before = self.pos;
                                elems.push(self.parse_expr(false));
                                if self.pos == before {
                                    self.pos += 1;
                                }
                            }
                        }
                    }
                    if elems.len() == 1 && !trailing_comma {
                        elems.pop().unwrap()
                    } else {
                        Expr::Tuple { elems, line }
                    }
                }
                "[" => {
                    self.pos += 1;
                    let mut elems = Vec::new();
                    loop {
                        match self.peek() {
                            None => break,
                            Some(t) if t.is_punct("]") => {
                                self.pos += 1;
                                break;
                            }
                            Some(t) if t.is_punct(",") || t.is_punct(";") => {
                                self.pos += 1;
                            }
                            _ => {
                                let before = self.pos;
                                elems.push(self.parse_expr(false));
                                if self.pos == before {
                                    self.pos += 1;
                                }
                            }
                        }
                    }
                    Expr::ArrayLit { elems, line }
                }
                "{" => Expr::Block(self.parse_block()),
                "|" => self.parse_closure(line),
                "#" => {
                    // Expression attribute (e.g. `#[cfg(debug_assertions)]`
                    // on a block): skip and analyze the expression anyway —
                    // conservative for hot-path rules.
                    self.skip_attrs();
                    self.parse_expr(ns)
                }
                // An operand missing before a closing delimiter or a
                // separator, as in malformed input (`let x = ;`, `v[]`,
                // `_ => }`); no shipped file or lint fixture reaches it.
                // That token belongs to the list parser — consuming it
                // here desynchronizes every statement after it.
                ")" | "]" | "}" | "," | ";" => Expr::Opaque(line),
                _ => {
                    self.pos += 1;
                    Expr::Opaque(line)
                }
            };
        }
        // Identifier / keyword.
        match t.text.as_str() {
            "true" | "false" => {
                self.pos += 1;
                Expr::Lit(line)
            }
            "self" => {
                self.pos += 1;
                Expr::SelfVal(line)
            }
            "if" => self.parse_if(),
            "match" => self.parse_match(),
            "while" => self.parse_while(),
            "loop" => {
                self.pos += 1;
                let body = self.parse_block();
                Expr::While {
                    bindings: Vec::new(),
                    cond: None,
                    body,
                }
            }
            "for" => self.parse_for(),
            "return" => {
                self.pos += 1;
                let stop = matches!(
                    self.peek(),
                    None | Some(Tok {
                        kind: TokKind::Punct,
                        ..
                    })
                ) && (self.at_punct(";") || self.at_punct("}") || self.at_punct(","));
                if stop {
                    Expr::Return(None)
                } else {
                    Expr::Return(Some(Box::new(self.parse_expr(ns))))
                }
            }
            "break" | "continue" => {
                self.pos += 1;
                // Optional label was stripped with the lifetime syntax.
                Expr::Opaque(line)
            }
            "move" => {
                self.pos += 1;
                self.parse_closure(line)
            }
            "unsafe" => {
                self.pos += 1;
                if self.at_punct("{") {
                    Expr::Block(self.parse_block())
                } else {
                    Expr::Opaque(line)
                }
            }
            _ => self.parse_path_expr(ns, line),
        }
    }

    fn parse_path_expr(&mut self, ns: bool, line: u32) -> Expr {
        let mut segs = vec![self.bump().map(|t| t.text.clone()).unwrap_or_default()];
        loop {
            if self.at_path_sep() {
                match self.peek_at(2) {
                    Some(t) if t.kind == TokKind::Ident => {
                        segs.push(t.text.clone());
                        self.pos += 3;
                    }
                    Some(t) if t.is_punct("<") => {
                        self.pos += 2;
                        self.skip_angles();
                    }
                    _ => break,
                }
            } else {
                break;
            }
        }
        // Macro invocation.
        if self.at_punct("!")
            && self
                .peek_at(1)
                .map(|t| t.is_punct("(") || t.is_punct("[") || t.is_punct("{"))
                .unwrap_or(false)
        {
            self.pos += 1;
            let name = segs.pop().unwrap_or_default();
            let args = match self
                .peek()
                .map(|t| t.text.clone())
                .unwrap_or_default()
                .as_str()
            {
                "(" => self.parse_macro_args("(", ")"),
                "[" => self.parse_macro_args("[", "]"),
                _ => {
                    self.skip_balanced("{", "}");
                    Vec::new()
                }
            };
            return Expr::Macro { name, args, line };
        }
        // Struct literal.
        let head_upper = segs
            .last()
            .and_then(|s| s.chars().next())
            .map(|c| c.is_uppercase())
            .unwrap_or(false);
        if self.at_punct("{") && !ns && head_upper {
            self.pos += 1;
            let mut fields = Vec::new();
            let mut rest = None;
            loop {
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct("}") => {
                        self.pos += 1;
                        break;
                    }
                    Some(t) if t.is_punct(",") => {
                        self.pos += 1;
                    }
                    Some(t) if t.is_punct(".") => {
                        // `..base`
                        self.pos += 1;
                        self.eat_punct(".");
                        if !self.at_punct("}") {
                            rest = Some(Box::new(self.parse_expr(false)));
                        }
                    }
                    Some(t) if t.kind == TokKind::Ident => {
                        let fname = t.text.clone();
                        let fline = t.line;
                        self.pos += 1;
                        if self.eat_punct(":") {
                            let v = self.parse_expr(false);
                            fields.push((fname, v));
                        } else {
                            // Shorthand `Struct { field }`.
                            let v = Expr::Path {
                                segs: vec![fname.clone()],
                                line: fline,
                            };
                            fields.push((fname, v));
                        }
                    }
                    _ => {
                        self.pos += 1;
                    }
                }
            }
            return Expr::StructLit {
                path: segs,
                fields,
                rest,
                line,
            };
        }
        Expr::Path { segs, line }
    }

    /// Macro arguments: best-effort comma-separated expressions. The
    /// lexer already stripped string literals, so format strings leave
    /// only their interpolation commas behind — stray punctuation is
    /// consumed token-by-token as `Opaque`.
    fn parse_macro_args(&mut self, open: &str, close: &str) -> Vec<Expr> {
        let mut args = Vec::new();
        self.eat_punct(open);
        loop {
            match self.peek() {
                None => return args,
                Some(t) if t.is_punct(close) => {
                    self.pos += 1;
                    return args;
                }
                // `;` separates the element and count of `vec![elem; n]`
                // (and array repeats) — treat it like a comma so the
                // count lands in its own argument slot.
                Some(t) if t.is_punct(",") || t.is_punct(";") => {
                    self.pos += 1;
                }
                _ => {
                    let before = self.pos;
                    args.push(self.parse_expr(false));
                    if self.pos == before {
                        self.pos += 1;
                    }
                }
            }
        }
    }

    fn parse_closure(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.at_punct2("|", "|") {
            self.pos += 2;
        } else if self.eat_punct("|") {
            loop {
                match self.peek() {
                    None => break,
                    Some(t) if t.is_punct("|") => {
                        self.pos += 1;
                        break;
                    }
                    Some(t) if t.is_punct(",") => {
                        self.pos += 1;
                    }
                    _ => {
                        // One parameter: pattern [: type].
                        let pat_start = self.pos;
                        let mut depth = 0i32;
                        while let Some(t) = self.peek() {
                            if t.kind == TokKind::Punct {
                                match t.text.as_str() {
                                    "(" | "[" | "<" => depth += 1,
                                    ")" | "]" | ">" => depth -= 1,
                                    "|" | "," if depth == 0 => break,
                                    ":" if depth == 0 => break,
                                    _ => {}
                                }
                            }
                            self.pos += 1;
                        }
                        let name = self.toks[pat_start..self.pos]
                            .iter()
                            .find(|t| {
                                t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("ref")
                            })
                            .map(|t| t.text.clone())
                            .unwrap_or_else(|| "_".into());
                        if self.eat_punct(":") {
                            self.collect_type(&[",", "|"], &[]);
                        }
                        params.push(name);
                    }
                }
            }
        }
        let body = if self.at_punct2("-", ">") {
            self.pos += 2;
            self.collect_type(&["{"], &[]);
            Expr::Block(self.parse_block())
        } else {
            self.parse_expr(false)
        };
        Expr::Closure {
            params,
            body: Box::new(body),
            line,
        }
    }

    fn parse_if(&mut self) -> Expr {
        self.eat_ident("if");
        let (bindings, cond) = self.parse_cond();
        let then = self.parse_block();
        let else_ = if self.eat_ident("else") {
            if self.at_ident("if") {
                Some(Box::new(self.parse_if()))
            } else {
                Some(Box::new(Expr::Block(self.parse_block())))
            }
        } else {
            None
        };
        Expr::If {
            bindings,
            cond: Box::new(cond),
            then,
            else_,
        }
    }

    fn parse_while(&mut self) -> Expr {
        self.eat_ident("while");
        let (bindings, cond) = self.parse_cond();
        let body = self.parse_block();
        Expr::While {
            bindings,
            cond: Some(Box::new(cond)),
            body,
        }
    }

    /// The `[let PAT =] expr` header of an `if`/`while`.
    fn parse_cond(&mut self) -> (Vec<Binding>, Expr) {
        if self.eat_ident("let") {
            let pat_start = self.pos;
            let mut depth = 0i32;
            while let Some(t) = self.peek() {
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth -= 1,
                        "=" if depth == 0 => break,
                        _ => {}
                    }
                }
                self.pos += 1;
            }
            let bindings = extract_bindings(&self.toks[pat_start..self.pos]);
            self.eat_punct("=");
            let scrut = self.parse_expr(true);
            (bindings, scrut)
        } else {
            (Vec::new(), self.parse_expr(true))
        }
    }

    fn parse_for(&mut self) -> Expr {
        self.eat_ident("for");
        let pat_start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" | "<" => depth += 1,
                    ")" | "]" | "}" | ">" => depth -= 1,
                    _ => {}
                }
            } else if depth == 0 && t.is_ident("in") {
                break;
            }
            self.pos += 1;
        }
        let bindings = extract_bindings(&self.toks[pat_start..self.pos]);
        self.eat_ident("in");
        let iter = self.parse_expr(true);
        let body = self.parse_block();
        Expr::For {
            bindings,
            iter: Box::new(iter),
            body,
        }
    }

    fn parse_match(&mut self) -> Expr {
        self.eat_ident("match");
        let scrutinee = self.parse_expr(true);
        let mut arms = Vec::new();
        if !self.eat_punct("{") {
            return Expr::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            };
        }
        loop {
            match self.peek() {
                None => break,
                Some(t) if t.is_punct("}") => {
                    self.pos += 1;
                    break;
                }
                Some(t) if t.is_punct(",") => {
                    self.pos += 1;
                }
                _ => {
                    self.skip_attrs();
                    // Pattern: up to `=>` or a guard `if` at depth zero.
                    let pat_start = self.pos;
                    let mut depth = 0i32;
                    let mut guard_at = None;
                    while let Some(t) = self.peek() {
                        if t.kind == TokKind::Punct {
                            match t.text.as_str() {
                                "(" | "[" | "{" | "<" => depth += 1,
                                ")" | "]" | ">" => depth -= 1,
                                "}" => {
                                    if depth == 0 {
                                        break; // malformed arm
                                    }
                                    depth -= 1;
                                }
                                "=" if depth == 0
                                    && self
                                        .peek_at(1)
                                        .map(|t| t.is_punct(">"))
                                        .unwrap_or(false) =>
                                {
                                    break;
                                }
                                _ => {}
                            }
                        } else if depth == 0 && t.is_ident("if") {
                            guard_at = Some(self.pos);
                            break;
                        }
                        self.pos += 1;
                    }
                    let bindings = extract_bindings(&self.toks[pat_start..self.pos]);
                    let guard = if guard_at.is_some() {
                        self.eat_ident("if");
                        Some(self.parse_expr(true))
                    } else {
                        None
                    };
                    if self.at_punct2("=", ">") {
                        self.pos += 2;
                    }
                    let before = self.pos;
                    // A block body ends the arm at its `}`, as in rustc:
                    // a following slice-pattern arm (`_ => {} [.., x] =>`)
                    // is not an index on the block.
                    let body = if self.at_punct("{") {
                        Expr::Block(self.parse_block())
                    } else {
                        self.parse_expr(false)
                    };
                    if self.pos == before {
                        self.pos += 1;
                    }
                    arms.push(Arm {
                        bindings,
                        guard,
                        body,
                    });
                }
            }
        }
        Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
        }
    }
}

/// Append a token to a type string, spacing apart adjacent word tokens.
/// Parses an integer literal token's value: underscores and a trailing
/// type suffix are stripped, `0x`/`0o`/`0b` radix prefixes are honoured.
/// Floats and out-of-range values return `None`.
fn parse_int_literal(text: &str) -> Option<i128> {
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    let mut s = cleaned.as_str();
    for suffix in [
        "u128", "i128", "usize", "isize", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ] {
        if let Some(rest) = s.strip_suffix(suffix) {
            s = rest;
            break;
        }
    }
    if s.is_empty() {
        return None;
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        return i128::from_str_radix(hex, 16).ok();
    }
    if let Some(oct) = s.strip_prefix("0o").or_else(|| s.strip_prefix("0O")) {
        return i128::from_str_radix(oct, 8).ok();
    }
    if let Some(bin) = s.strip_prefix("0b").or_else(|| s.strip_prefix("0B")) {
        return i128::from_str_radix(bin, 2).ok();
    }
    s.parse::<i128>().ok()
}

fn push_tok(out: &mut String, t: &Tok) {
    let word = |c: char| c.is_alphanumeric() || c == '_';
    if let (Some(last), Some(first)) = (out.chars().last(), t.text.chars().next()) {
        if word(last) && word(first) {
            out.push(' ');
        }
    }
    out.push_str(&t.text);
}

/// Reduce a pattern's tokens to the bindings it introduces.
///
/// Recognized precisely: a bare lowercase identifier (`whole` binding)
/// and `Some(x)` / `Ok(x)` wrappers (each adds one `peel`). Every other
/// lowercase identifier that is not a field label or keyword is recorded
/// as a type-unknown binding so it *shadows* any outer variable of the
/// same name instead of mis-resolving to it.
pub fn extract_bindings(toks: &[Tok]) -> Vec<Binding> {
    let mut i = 0usize;
    let peel = 0u8;
    // Strip `& mut ref` prefixes and unwrap Some(..)/Ok(..) layers.
    loop {
        match toks.get(i) {
            Some(t) if t.is_punct("&") || t.is_ident("mut") || t.is_ident("ref") => i += 1,
            Some(t)
                if (t.is_ident("Some") || t.is_ident("Ok"))
                    && toks.get(i + 1).map(|t| t.is_punct("(")).unwrap_or(false)
                    && toks.last().map(|t| t.is_punct(")")).unwrap_or(false) =>
            {
                // Recurse into the wrapper body.
                let inner = &toks[i + 2..toks.len() - 1];
                let mut bs = extract_bindings(inner);
                for b in &mut bs {
                    if b.whole {
                        b.peel = b.peel.saturating_add(peel + 1);
                    }
                }
                return bs;
            }
            _ => break,
        }
    }
    let rest = &toks[i.min(toks.len())..];
    // Single identifier → whole binding.
    if rest.len() == 1 && rest[0].kind == TokKind::Ident {
        let name = &rest[0].text;
        if is_binding_name(name) {
            return vec![Binding {
                name: name.clone(),
                peel,
                whole: true,
            }];
        }
        return Vec::new();
    }
    // Composite pattern: harvest identifiers as type-unknown bindings.
    let mut out = Vec::new();
    let mut j = 0usize;
    while j < rest.len() {
        let t = &rest[j];
        if t.kind == TokKind::Ident && is_binding_name(&t.text) {
            let prev_sep = j >= 2 && rest[j - 1].is_punct(":") && rest[j - 2].is_punct(":");
            let next_sep = rest.get(j + 1).map(|t| t.is_punct(":")).unwrap_or(false);
            // Skip path segments (`a::b`) and `field:` labels: any
            // adjacent colon disqualifies the ident as a binding.
            if !prev_sep && !next_sep {
                out.push(Binding {
                    name: t.text.clone(),
                    peel: 0,
                    whole: false,
                });
            }
        }
        j += 1;
    }
    out
}

fn is_binding_name(name: &str) -> bool {
    if name == "_" || name == "mut" || name == "ref" {
        return false;
    }
    match name.chars().next() {
        Some(c) => c.is_lowercase() || (c == '_' && name.len() > 1),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        parse_file(&lex(src))
    }

    fn only_fn(src: &str) -> PFn {
        let f = parse(src);
        assert_eq!(f.fns.len(), 1, "expected one fn in {src}");
        f.fns.into_iter().next().unwrap()
    }

    #[test]
    fn fn_signature_and_params() {
        let f = only_fn("pub fn run(cfg: &mut MachineConfig, n: u32) -> SimStats { body() }");
        assert_eq!(f.name, "run");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "cfg");
        assert_eq!(f.params[0].ty, "&mut MachineConfig");
        assert_eq!(f.params[1].ty, "u32");
        assert_eq!(f.ret, "SimStats");
    }

    #[test]
    fn impl_methods_get_self_ty() {
        let p = parse("impl<'cfg> Simulator<'cfg> { fn feed(&mut self, op: TraceOp) {} }");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Simulator"));
        assert_eq!(p.fns[0].params[0].name, "self");
    }

    #[test]
    fn trait_impl_resolves_to_the_implementing_type() {
        let p = parse("impl Index<StallKind> for StallBreakdown { fn index(&self, k: StallKind) -> &u64 { &self.0 } }");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("StallBreakdown"));
    }

    #[test]
    fn cfg_test_modules_are_marked() {
        let p = parse("#[cfg(test)] mod tests { fn helper() {} #[test] fn t() {} } fn live() {}");
        assert!(p.fns[0].in_test);
        assert!(p.fns[1].in_test);
        assert!(!p.fns[2].in_test);
    }

    #[test]
    fn method_calls_and_chains_parse() {
        let f = only_fn("fn f(&mut self) { self.obs.as_deref_mut().unwrap().record(1); }");
        let Stmt::Expr(Expr::MethodCall { name, recv, .. }) = &f.body[0] else {
            panic!("want method call, got {:?}", f.body[0]);
        };
        assert_eq!(name, "record");
        let Expr::MethodCall { name: n2, .. } = recv.as_ref() else {
            panic!("want nested method call");
        };
        assert_eq!(n2, "unwrap");
    }

    #[test]
    fn if_let_else_and_bindings() {
        let f = only_fn("fn f(&mut self) { let Some(o) = self.obs.as_deref_mut() else { return; }; o.record(); }");
        let Stmt::Let(l) = &f.body[0] else { panic!() };
        assert_eq!(l.bindings.len(), 1);
        assert_eq!(l.bindings[0].name, "o");
        assert_eq!(l.bindings[0].peel, 1);
        assert!(l.bindings[0].whole);
        assert!(l.else_block.is_some());
    }

    #[test]
    fn match_arms_with_guards() {
        let f = only_fn(
            "fn f(k: OpKind) -> u32 { match k { kind if kind.is_fpu() => 1, OpKind::Load { ea, width } => ea, _ => 0 } }",
        );
        let Stmt::Expr(Expr::Match { arms, .. }) = &f.body[0] else {
            panic!()
        };
        assert_eq!(arms.len(), 3);
        assert!(arms[0].guard.is_some());
        let names: Vec<_> = arms[1].bindings.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["ea", "width"]);
        assert!(!arms[1].bindings[0].whole);
    }

    #[test]
    fn closures_capture_param_names() {
        let f = only_fn("fn f() { sweep(\"t\", |cfg, v| { cfg.fpu.instr_queue = v; }); }");
        let Stmt::Expr(Expr::Call { args, .. }) = &f.body[0] else {
            panic!()
        };
        let Expr::Closure { params, .. } = &args[1] else {
            panic!("want closure, got {:?}", args[1])
        };
        assert_eq!(params, &["cfg", "v"]);
    }

    #[test]
    fn casts_chain_and_stop_at_operators() {
        let f = only_fn("fn f(p: &u8) -> usize { p as *const u8 as usize + 1 }");
        let Stmt::Expr(Expr::Binary { lhs, .. }) = &f.body[0] else {
            panic!("want binary, got {:?}", f.body[0])
        };
        let Expr::Cast { ty, expr, .. } = lhs.as_ref() else {
            panic!()
        };
        assert_eq!(ty, "usize");
        let Expr::Cast { ty: t2, .. } = expr.as_ref() else {
            panic!()
        };
        assert_eq!(t2, "*const u8");
    }

    #[test]
    fn compound_assign_and_index() {
        let f = only_fn("fn f(&mut self, c: StallCause) { self.stats.stalls[c.kind()] += 1; }");
        let Stmt::Expr(Expr::Assign { op, lhs, .. }) = &f.body[0] else {
            panic!("want assign, got {:?}", f.body[0])
        };
        assert_eq!(*op, Some(BinOp::Add));
        assert!(matches!(lhs.as_ref(), Expr::Index { .. }));
    }

    #[test]
    fn iterator_pipeline_parses_methods() {
        let f = only_fn(
            "fn f(&self) -> Option<u64> { [self.a(), self.b()].into_iter().flatten().filter(|c| *c > self.now).min() }",
        );
        let Stmt::Expr(Expr::MethodCall { name, .. }) = &f.body[0] else {
            panic!()
        };
        assert_eq!(name, "min");
    }

    #[test]
    fn struct_literals_and_ranges() {
        let f = only_fn("fn f(n: usize) -> S { for i in 0..n { go(i); } S { a: 1, b: n } }");
        assert!(matches!(&f.body[0], Stmt::Expr(Expr::For { .. })));
        let Stmt::Expr(Expr::StructLit { path, fields, .. }) = &f.body[1] else {
            panic!("want struct lit, got {:?}", f.body[1])
        };
        assert_eq!(path, &["S"]);
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn no_struct_context_in_headers() {
        let f = only_fn("fn f(s: S) -> u32 { if s.ready { 1 } else { 0 } }");
        let Stmt::Expr(Expr::If { cond, .. }) = &f.body[0] else {
            panic!()
        };
        assert!(matches!(cond.as_ref(), Expr::Field { .. }));
    }

    #[test]
    fn macros_keep_parsed_args() {
        let f = only_fn("fn f(x: u64) { assert_eq!(x.checked(), compute(x)); }");
        let Stmt::Expr(Expr::Macro { name, args, .. }) = &f.body[0] else {
            panic!()
        };
        assert_eq!(name, "assert_eq");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn fat_arrow_is_not_assignment() {
        let f = only_fn("fn f(x: u32) -> u32 { match x { n if n > 1 => n, _ => 0 } }");
        let Stmt::Expr(Expr::Match { arms, .. }) = &f.body[0] else {
            panic!("got {:?}", f.body[0])
        };
        assert_eq!(arms.len(), 2);
    }

    #[test]
    fn block_bodied_arm_ends_before_a_slice_pattern() {
        let f = only_fn("fn f(p: &[u32]) -> u32 { match p { [] => {} [.., x] => g(x), } }");
        let Stmt::Expr(Expr::Match { arms, .. }) = &f.body[0] else {
            panic!("got {:?}", f.body[0])
        };
        assert_eq!(arms.len(), 2);
        assert!(matches!(arms[0].body, Expr::Block(_)));
        let names: Vec<_> = arms[1].bindings.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["x"]);
    }

    #[test]
    fn turbofish_and_generic_calls() {
        let f = only_fn("fn f(v: &[u8]) -> Vec<u8> { v.iter().copied().collect::<Vec<u8>>() }");
        let Stmt::Expr(Expr::MethodCall { name, .. }) = &f.body[0] else {
            panic!()
        };
        assert_eq!(name, "collect");
    }

    #[test]
    fn nested_fns_are_items() {
        let p = parse("fn outer() { fn inner() -> u64 { 3 } inner(); }");
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"inner"));
    }

    #[test]
    fn tolerates_unknown_syntax_without_stalling() {
        // Garbage tokens must not hang or drop the following fn.
        let p = parse("static X: &[u8] = &[1]; fn ok() { weird @ ; } fn also_ok() {}");
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"ok") && names.contains(&"also_ok"));
    }
}
