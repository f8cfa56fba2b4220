//! `sqldf`: a small SQL engine over data frames.
//!
//! The paper's Anlys workload runs SQL queries *inside map tasks* via the R
//! `sqldf` package ("it converts the SQL queries into operations upon R
//! data frames"). This module does the same: a tokenizer, a recursive-
//! descent parser and an executor supporting
//!
//! ```sql
//! SELECT <exprs | aggregates | *>
//! FROM <frame>
//! [WHERE <expr>] [GROUP BY <cols>] [ORDER BY <col> [ASC|DESC]] [LIMIT n]
//! ```
//!
//! with arithmetic (`+ - * /`), comparisons, `AND/OR/NOT`, and the
//! aggregates `COUNT/SUM/AVG/MIN/MAX`.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::columnar::{CmpOp, ColumnFold, Lit, Predicate};
use crate::error::{FrameError, Result};
use crate::frame::{Column, DataFrame, Value};

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(f64),
    Str(String),
    Sym(&'static str),
    Kw(&'static str),
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT", "AS", "AND", "OR",
    "NOT", "COUNT", "SUM", "AVG", "MIN", "MAX",
];

fn tokenize(sql: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let b = sql.as_bytes();
    let mut i = 0;
    while let Some(&byte) = b.get(i) {
        let c = byte as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            ',' => {
                toks.push(Tok::Sym(","));
                i += 1;
            }
            '(' => {
                toks.push(Tok::Sym("("));
                i += 1;
            }
            ')' => {
                toks.push(Tok::Sym(")"));
                i += 1;
            }
            '*' => {
                toks.push(Tok::Sym("*"));
                i += 1;
            }
            '+' => {
                toks.push(Tok::Sym("+"));
                i += 1;
            }
            '-' => {
                toks.push(Tok::Sym("-"));
                i += 1;
            }
            '/' => {
                toks.push(Tok::Sym("/"));
                i += 1;
            }
            '=' => {
                toks.push(Tok::Sym("="));
                i += 1;
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Sym("<="));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    toks.push(Tok::Sym("!="));
                    i += 2;
                } else {
                    toks.push(Tok::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Sym(">="));
                    i += 2;
                } else {
                    toks.push(Tok::Sym(">"));
                    i += 1;
                }
            }
            '!' => {
                if b.get(i + 1) == Some(&b'=') {
                    toks.push(Tok::Sym("!="));
                    i += 2;
                } else {
                    return Err(FrameError::Sql("unexpected '!'".into()));
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while b.get(j).is_some_and(|&x| x != b'\'') {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(FrameError::Sql("unterminated string literal".into()));
                }
                toks.push(Tok::Str(sql.get(start..j).unwrap_or("").to_string()));
                i = j + 1;
            }
            _ if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut j = i;
                while b.get(j).is_some_and(|&x| {
                    x.is_ascii_digit()
                        || x == b'.'
                        || x == b'e'
                        || x == b'E'
                        || ((x == b'+' || x == b'-')
                            && j > start
                            && matches!(b.get(j - 1), Some(b'e') | Some(b'E')))
                }) {
                    j += 1;
                }
                let text = sql.get(start..j).unwrap_or("");
                let v: f64 = text
                    .parse()
                    .map_err(|_| FrameError::Sql(format!("bad number {text:?}")))?;
                toks.push(Tok::Num(v));
                i = j;
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while b
                    .get(j)
                    .is_some_and(|&x| x.is_ascii_alphanumeric() || x == b'_' || x == b'.')
                {
                    j += 1;
                }
                let word = sql.get(start..j).unwrap_or("");
                let upper = word.to_ascii_uppercase();
                if let Some(kw) = KEYWORDS.iter().find(|&&k| k == upper) {
                    toks.push(Tok::Kw(kw));
                } else {
                    toks.push(Tok::Ident(word.to_string()));
                }
                i = j;
            }
            other => return Err(FrameError::Sql(format!("unexpected character {other:?}"))),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// AST + parser
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Expr {
    Col(String),
    Num(f64),
    Str(String),
    Bin(Box<Expr>, &'static str, Box<Expr>),
    Not(Box<Expr>),
    Neg(Box<Expr>),
}

impl Expr {
    fn render(&self) -> String {
        match self {
            Expr::Col(c) => c.clone(),
            Expr::Num(v) => format!("{v}"),
            Expr::Str(s) => format!("'{s}'"),
            Expr::Bin(l, op, r) => format!("{}{}{}", l.render(), op, r.render()),
            Expr::Not(e) => format!("not {}", e.render()),
            Expr::Neg(e) => format!("-{}", e.render()),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

#[derive(Clone, Debug)]
enum Item {
    Star,
    Expr {
        expr: Expr,
        alias: Option<String>,
    },
    Agg {
        func: AggFunc,
        arg: Option<Expr>,
        alias: Option<String>,
    },
}

#[derive(Clone, Debug)]
struct Query {
    items: Vec<Item>,
    table: String,
    where_: Option<Expr>,
    group_by: Vec<String>,
    order_by: Option<(String, bool)>,
    limit: Option<usize>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek()
            == Some(&Tok::Kw(
                KEYWORDS.iter().find(|&&k| k == kw).copied().unwrap_or(""),
            ))
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(FrameError::Sql(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(FrameError::Sql(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    fn agg_func(&mut self) -> Option<AggFunc> {
        let f = match self.peek()? {
            Tok::Kw("COUNT") => AggFunc::Count,
            Tok::Kw("SUM") => AggFunc::Sum,
            Tok::Kw("AVG") => AggFunc::Avg,
            Tok::Kw("MIN") => AggFunc::Min,
            Tok::Kw("MAX") => AggFunc::Max,
            _ => return None,
        };
        // Only an aggregate if followed by '('.
        if matches!(self.toks.get(self.pos + 1), Some(Tok::Sym("("))) {
            self.pos += 1;
            Some(f)
        } else {
            None
        }
    }

    fn item(&mut self) -> Result<Item> {
        if self.eat_sym("*") {
            return Ok(Item::Star);
        }
        if let Some(func) = self.agg_func() {
            if !self.eat_sym("(") {
                return Err(FrameError::Sql("expected ( after aggregate".into()));
            }
            let arg = if self.eat_sym("*") {
                None
            } else {
                Some(self.expr()?)
            };
            if !self.eat_sym(")") {
                return Err(FrameError::Sql("expected ) after aggregate".into()));
            }
            let alias = if self.eat_kw("AS") {
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Item::Agg { func, arg, alias });
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Item::Expr { expr, alias })
    }

    // Precedence climbing: or < and < not < cmp < add < mul < unary.
    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut l = self.and_expr()?;
        while self.eat_kw("OR") {
            let r = self.and_expr()?;
            l = Expr::Bin(Box::new(l), "or", Box::new(r));
        }
        Ok(l)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut l = self.not_expr()?;
        while self.eat_kw("AND") {
            let r = self.not_expr()?;
            l = Expr::Bin(Box::new(l), "and", Box::new(r));
        }
        Ok(l)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let l = self.add_expr()?;
        for op in ["<=", ">=", "!=", "=", "<", ">"] {
            if self.eat_sym(op) {
                let r = self.add_expr()?;
                return Ok(Expr::Bin(Box::new(l), op, Box::new(r)));
            }
        }
        Ok(l)
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut l = self.mul_expr()?;
        loop {
            if self.eat_sym("+") {
                l = Expr::Bin(Box::new(l), "+", Box::new(self.mul_expr()?));
            } else if self.eat_sym("-") {
                l = Expr::Bin(Box::new(l), "-", Box::new(self.mul_expr()?));
            } else {
                return Ok(l);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut l = self.unary()?;
        loop {
            if self.eat_sym("*") {
                l = Expr::Bin(Box::new(l), "*", Box::new(self.unary()?));
            } else if self.eat_sym("/") {
                l = Expr::Bin(Box::new(l), "/", Box::new(self.unary()?));
            } else {
                return Ok(l);
            }
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_sym("-") {
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        match self.next() {
            Some(Tok::Num(v)) => Ok(Expr::Num(v)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::Ident(c)) => Ok(Expr::Col(c)),
            Some(Tok::Sym("(")) => {
                let e = self.expr()?;
                if !self.eat_sym(")") {
                    return Err(FrameError::Sql("expected )".into()));
                }
                Ok(e)
            }
            other => Err(FrameError::Sql(format!("unexpected token {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("SELECT")?;
        let mut items = vec![self.item()?];
        while self.eat_sym(",") {
            items.push(self.item()?);
        }
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_ = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.ident()?);
            while self.eat_sym(",") {
                group_by.push(self.ident()?);
            }
        }
        let order_by = if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            let col = self.ident()?;
            let desc = if self.eat_kw("DESC") {
                true
            } else {
                self.eat_kw("ASC");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Tok::Num(v)) if v >= 0.0 && v.fract() == 0.0 => Some(v as usize),
                other => return Err(FrameError::Sql(format!("bad LIMIT {other:?}"))),
            }
        } else {
            None
        };
        if self.pos != self.toks.len() {
            return Err(FrameError::Sql(format!(
                "trailing tokens after query: {:?}",
                self.toks.get(self.pos..).unwrap_or(&[])
            )));
        }
        Ok(Query {
            items,
            table,
            where_,
            group_by,
            order_by,
            limit,
        })
    }
}

// ---------------------------------------------------------------------------
// Predicate extraction (pushdown planning)
// ---------------------------------------------------------------------------

/// A literal operand, if the expression is one. Mirrors `eval` exactly:
/// unary minus folds into numbers (`-3` evaluates to `F64(-3.0)`), but a
/// negated string does *not* stay a string (`eval` widens it to NaN), so
/// it is not convertible.
fn lit_of(e: &Expr) -> Option<Lit> {
    match e {
        Expr::Num(v) => Some(Lit::Num(*v)),
        Expr::Str(s) => Some(Lit::Str(s.clone())),
        Expr::Neg(inner) => match lit_of(inner)? {
            Lit::Num(v) => Some(Lit::Num(-v)),
            Lit::Str(_) => None,
        },
        _ => None,
    }
}

fn cmp_op_of(op: &str) -> Option<CmpOp> {
    Some(match op {
        "=" => CmpOp::Eq,
        "!=" => CmpOp::Ne,
        "<" => CmpOp::Lt,
        "<=" => CmpOp::Le,
        ">" => CmpOp::Gt,
        ">=" => CmpOp::Ge,
        _ => return None,
    })
}

/// Convert a WHERE expression into the pushdown [`Predicate`] IR, if it is
/// built purely from column-vs-literal comparisons under `AND`/`OR`/`NOT`.
/// Returns `None` for anything richer (arithmetic, column-vs-column, bare
/// truthiness) — those queries simply run the row-at-a-time path.
fn expr_to_predicate(e: &Expr) -> Option<Predicate> {
    match e {
        Expr::Bin(l, "and", r) => Some(Predicate::And(
            Box::new(expr_to_predicate(l)?),
            Box::new(expr_to_predicate(r)?),
        )),
        Expr::Bin(l, "or", r) => Some(Predicate::Or(
            Box::new(expr_to_predicate(l)?),
            Box::new(expr_to_predicate(r)?),
        )),
        Expr::Not(inner) => Some(Predicate::Not(Box::new(expr_to_predicate(inner)?))),
        Expr::Bin(l, op, r) => {
            let op = cmp_op_of(op)?;
            if let (Expr::Col(c), Some(lit)) = (l.as_ref(), lit_of(r)) {
                Some(Predicate::Cmp {
                    col: c.clone(),
                    op,
                    lit,
                })
            } else if let (Some(lit), Expr::Col(c)) = (lit_of(l), r.as_ref()) {
                Some(Predicate::Cmp {
                    col: c.clone(),
                    op: op.flip(),
                    lit,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Extract the pushdown predicate of a query's WHERE clause.
///
/// `Ok(None)` means the query has no WHERE clause *or* its shape is not
/// convertible to the [`Predicate`] IR — both degrade to a full scan, never
/// to an error. Errors are reserved for SQL that does not parse at all.
pub fn where_predicate(sql: &str) -> Result<Option<Predicate>> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0 };
    let q = p.query()?;
    Ok(q.where_.as_ref().and_then(expr_to_predicate))
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

fn eval(expr: &Expr, df: &DataFrame, row: usize) -> Result<Value> {
    Ok(match expr {
        Expr::Num(v) => Value::F64(*v),
        Expr::Str(s) => Value::Str(s.clone()),
        Expr::Col(c) => df.column(c)?.value(row),
        Expr::Neg(e) => Value::F64(-eval(e, df, row)?.as_f64()),
        Expr::Not(e) => Value::I64(if truthy(&eval(e, df, row)?) { 0 } else { 1 }),
        Expr::Bin(l, op, r) => {
            let lv = eval(l, df, row)?;
            let rv = eval(r, df, row)?;
            match *op {
                "+" => Value::F64(lv.as_f64() + rv.as_f64()),
                "-" => Value::F64(lv.as_f64() - rv.as_f64()),
                "*" => Value::F64(lv.as_f64() * rv.as_f64()),
                "/" => Value::F64(lv.as_f64() / rv.as_f64()),
                "and" => Value::I64((truthy(&lv) && truthy(&rv)) as i64),
                "or" => Value::I64((truthy(&lv) || truthy(&rv)) as i64),
                cmp => {
                    let b = match (&lv, &rv) {
                        (Value::Str(a), Value::Str(b)) => compare_ord(a.cmp(b), cmp),
                        _ => {
                            let (x, y) = (lv.as_f64(), rv.as_f64());
                            match cmp {
                                "=" => x == y,
                                "!=" => x != y,
                                "<" => x < y,
                                "<=" => x <= y,
                                ">" => x > y,
                                ">=" => x >= y,
                                _ => return Err(FrameError::Sql(format!("bad op {cmp}"))),
                            }
                        }
                    };
                    Value::I64(b as i64)
                }
            }
        }
    })
}

fn compare_ord(o: std::cmp::Ordering, op: &str) -> bool {
    use std::cmp::Ordering::*;
    match op {
        "=" => o == Equal,
        "!=" => o != Equal,
        "<" => o == Less,
        "<=" => o != Greater,
        ">" => o == Greater,
        ">=" => o != Less,
        _ => false,
    }
}

fn truthy(v: &Value) -> bool {
    match v {
        Value::F64(x) => *x != 0.0 && !x.is_nan(),
        Value::I64(x) => *x != 0,
        Value::Str(s) => !s.is_empty(),
    }
}

fn item_name(item: &Item) -> String {
    match item {
        Item::Star => "*".into(),
        Item::Expr { expr, alias } => alias.clone().unwrap_or_else(|| expr.render()),
        Item::Agg { func, arg, alias } => alias.clone().unwrap_or_else(|| {
            format!(
                "{}({})",
                func.name(),
                arg.as_ref().map_or("*".into(), |e| e.render())
            )
        }),
    }
}

#[derive(Default, Clone)]
struct AggState {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    seen: bool,
}

impl AggState {
    fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if !self.seen || v < self.min {
            self.min = v;
        }
        if !self.seen || v > self.max {
            self.max = v;
        }
        self.seen = true;
    }

    fn finish(&self, f: AggFunc) -> f64 {
        match f {
            AggFunc::Count => self.count as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
            AggFunc::Min => {
                if self.seen {
                    self.min
                } else {
                    f64::NAN
                }
            }
            AggFunc::Max => {
                if self.seen {
                    self.max
                } else {
                    f64::NAN
                }
            }
        }
    }
}

fn execute(q: &Query, env: &HashMap<&str, &DataFrame>) -> Result<DataFrame> {
    let df = *env
        .get(q.table.as_str())
        .ok_or_else(|| FrameError::Sql(format!("unknown table {}", q.table)))?;
    // WHERE. Column-vs-literal clauses take the vectorised columnar path;
    // everything else evaluates row at a time. The guard on `n_rows` keeps
    // error behaviour identical: the row loop never touches columns of an
    // empty frame, so neither may the mask evaluator. Without a WHERE the
    // source frame is borrowed, not copied.
    let filtered: Cow<'_, DataFrame> = if let Some(pred) = &q.where_ {
        Cow::Owned(match expr_to_predicate(pred) {
            Some(p) if df.n_rows() > 0 => df.filter(&p.eval_mask(df)?)?,
            _ => {
                let mut mask = Vec::with_capacity(df.n_rows());
                for r in 0..df.n_rows() {
                    mask.push(truthy(&eval(pred, df, r)?));
                }
                df.filter(&mask)?
            }
        })
    } else {
        Cow::Borrowed(df)
    };

    let has_agg = q.items.iter().any(|i| matches!(i, Item::Agg { .. }));

    if !has_agg && q.group_by.is_empty() {
        // Plain projection. ORDER BY / LIMIT apply to the source rows so
        // ordering by non-selected columns works (sqldf semantics for the
        // paper's top-k queries).
        let ordered = if let Some((col, desc)) = &q.order_by {
            Cow::Owned(filtered.sort_by(col, *desc)?)
        } else {
            filtered
        };
        let limited = if let Some(n) = q.limit {
            Cow::Owned(ordered.head(n))
        } else {
            ordered
        };
        let mut out = DataFrame::new();
        for item in &q.items {
            match item {
                Item::Star => {
                    for name in limited.names().to_vec() {
                        out = out.with_column(name.clone(), limited.column(&name)?.clone())?;
                    }
                }
                Item::Expr { expr, .. } => {
                    let name = item_name(item);
                    // Bare column references keep their type.
                    if let Expr::Col(c) = expr {
                        out = out.with_column(name, limited.column(c)?.clone())?;
                    } else {
                        let mut v = Vec::with_capacity(limited.n_rows());
                        for r in 0..limited.n_rows() {
                            v.push(eval(expr, &limited, r)?.as_f64());
                        }
                        out = out.with_column(name, Column::F64(v))?;
                    }
                }
                // The non-aggregate path is only taken when no Agg item
                // exists; reaching one here is a planner inconsistency.
                Item::Agg { .. } => {
                    return Err(FrameError::Sql(
                        "aggregate item in non-aggregate query plan".into(),
                    ))
                }
            }
        }
        return Ok(out);
    }

    // Aggregation path (with or without GROUP BY).
    for item in &q.items {
        match item {
            Item::Expr {
                expr: Expr::Col(c), ..
            } if q.group_by.contains(c) => {}
            Item::Agg { .. } => {}
            Item::Star => {
                return Err(FrameError::Sql(
                    "SELECT * cannot be combined with aggregation".into(),
                ))
            }
            other => {
                return Err(FrameError::Sql(format!(
                    "non-aggregated item {:?} must appear in GROUP BY",
                    item_name(other)
                )))
            }
        }
    }
    // Group rows.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<String, usize> = HashMap::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    let n_aggs = q
        .items
        .iter()
        .filter(|i| matches!(i, Item::Agg { .. }))
        .count();
    // Global aggregation over bare columns (or `*`) folds whole columns at
    // once instead of materialising a `Value` per cell. The fold performs
    // the same updates in the same row order as the loop below, so results
    // are bit-identical, including the empty-input degenerate row.
    let all_simple_agg = q.group_by.is_empty()
        && filtered.n_rows() > 0
        && q.items.iter().all(|i| {
            matches!(
                i,
                Item::Agg { arg: None, .. }
                    | Item::Agg {
                        arg: Some(Expr::Col(_)),
                        ..
                    }
            )
        });
    if all_simple_agg {
        let mut row_states = Vec::with_capacity(n_aggs);
        for item in &q.items {
            if let Item::Agg { func, arg, .. } = item {
                let f = match arg {
                    None => ColumnFold::of_ones(filtered.n_rows()),
                    Some(Expr::Col(c)) => {
                        ColumnFold::of_column(filtered.column(c)?, *func == AggFunc::Count)
                    }
                    Some(_) => {
                        return Err(FrameError::Sql(
                            "non-column aggregate in vectorised plan".into(),
                        ))
                    }
                };
                row_states.push(AggState {
                    count: f.count,
                    sum: f.sum,
                    min: f.min,
                    max: f.max,
                    seen: f.seen,
                });
            }
        }
        order.push(Vec::new());
        states.push(row_states);
    }
    let row_loop_rows = if all_simple_agg { 0 } else { filtered.n_rows() };
    for r in 0..row_loop_rows {
        let key_vals: Vec<Value> = q
            .group_by
            .iter()
            .map(|c| filtered.column(c).map(|col| col.value(r)))
            .collect::<Result<_>>()?;
        let key = key_vals
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\u{1}");
        let gi = *groups.entry(key).or_insert_with(|| {
            order.push(key_vals);
            states.push(vec![AggState::default(); n_aggs]);
            order.len() - 1
        });
        let mut ai = 0;
        for item in &q.items {
            if let Item::Agg { func, arg, .. } = item {
                let v = match arg {
                    None => Some(1.0), // COUNT(*)
                    Some(e) => {
                        let v = eval(e, &filtered, r)?.as_f64();
                        (*func == AggFunc::Count || v.is_finite()).then_some(v)
                    }
                };
                if let Some(v) = v {
                    // `gi` indexes the group we just pushed/found and
                    // `ai < n_aggs` by construction of `states` rows.
                    if let Some(state) = states.get_mut(gi).and_then(|row| row.get_mut(ai)) {
                        state.update(v);
                    }
                }
                ai += 1;
            }
        }
    }
    // Degenerate global aggregation over empty input still yields one row.
    if q.group_by.is_empty() && order.is_empty() {
        order.push(Vec::new());
        states.push(vec![AggState::default(); n_aggs]);
    }
    // Build output columns.
    let mut out = DataFrame::new();
    let mut ai = 0usize;
    for item in &q.items {
        let name = item_name(item);
        match item {
            Item::Expr {
                expr: Expr::Col(c), ..
            } => {
                let pos = q.group_by.iter().position(|g| g == c).ok_or_else(|| {
                    FrameError::Sql(format!("column {c:?} missing from GROUP BY"))
                })?;
                // Group key column: retain original type when uniform.
                let vals: Vec<Value> = order
                    .iter()
                    .map(|k| k.get(pos).cloned().unwrap_or(Value::F64(f64::NAN)))
                    .collect();
                let ints: Vec<i64> = vals
                    .iter()
                    .filter_map(|v| match v {
                        Value::I64(x) => Some(*x),
                        _ => None,
                    })
                    .collect();
                let col = if ints.len() == vals.len() {
                    Column::I64(ints)
                } else if vals.iter().all(|v| matches!(v, Value::Str(_))) {
                    Column::Str(vals.iter().map(|v| v.to_string()).collect())
                } else {
                    Column::F64(vals.iter().map(Value::as_f64).collect())
                };
                out = out.with_column(name, col)?;
            }
            Item::Agg { func, .. } => {
                let v: Vec<f64> = states
                    .iter()
                    .map(|s| s.get(ai).map_or(f64::NAN, |st| st.finish(*func)))
                    .collect();
                out = out.with_column(name, Column::F64(v))?;
                ai += 1;
            }
            other => {
                // The validation pass above rejects everything else.
                return Err(FrameError::Sql(format!(
                    "unexpected item {:?} in aggregate query plan",
                    item_name(other)
                )));
            }
        }
    }
    let out = if let Some((col, desc)) = &q.order_by {
        out.sort_by(col, *desc)?
    } else {
        out
    };
    Ok(if let Some(n) = q.limit {
        out.head(n)
    } else {
        out
    })
}

/// Run a SQL query over named data frames.
///
/// ```
/// use rframe::{sqldf, DataFrame, Column};
/// use std::collections::HashMap;
/// let df = DataFrame::new()
///     .with_column("v", Column::F64(vec![3.0, 1.0, 2.0])).unwrap();
/// let mut env = HashMap::new();
/// env.insert("df", &df);
/// let top = sqldf("SELECT v FROM df ORDER BY v DESC LIMIT 2", &env).unwrap();
/// assert_eq!(top.f64_column("v").unwrap(), &vec![3.0, 2.0]);
/// ```
pub fn sqldf(sql: &str, env: &HashMap<&str, &DataFrame>) -> Result<DataFrame> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0 };
    let q = p.query()?;
    execute(&q, env)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(df: &DataFrame) -> HashMap<&str, &DataFrame> {
        let mut env = HashMap::new();
        env.insert("df", df);
        env
    }

    fn sample() -> DataFrame {
        DataFrame::new()
            .with_column("lev", Column::I64(vec![0, 0, 1, 1, 2]))
            .unwrap()
            .with_column("value", Column::F64(vec![5.0, 3.0, 8.0, 1.0, 8.0]))
            .unwrap()
            .with_column(
                "tag",
                Column::Str(vec![
                    "a".into(),
                    "b".into(),
                    "a".into(),
                    "b".into(),
                    "a".into(),
                ]),
            )
            .unwrap()
    }

    #[test]
    fn select_star() {
        let df = sample();
        let out = sqldf("SELECT * FROM df", &env_with(&df)).unwrap();
        assert_eq!(out, df);
    }

    #[test]
    fn where_filters() {
        let df = sample();
        let out = sqldf("SELECT value FROM df WHERE value > 3", &env_with(&df)).unwrap();
        assert_eq!(out.f64_column("value").unwrap(), &vec![5.0, 8.0, 8.0]);
        let out = sqldf(
            "SELECT value FROM df WHERE lev = 1 AND value < 5",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.f64_column("value").unwrap(), &vec![1.0]);
        let out = sqldf(
            "SELECT value FROM df WHERE tag = 'b' OR value >= 8",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.n_rows(), 4);
    }

    #[test]
    fn order_and_limit_top_k() {
        // The paper's "highlight" query: top-10 points.
        let df = sample();
        let out = sqldf(
            "SELECT lev, value FROM df ORDER BY value DESC LIMIT 2",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.f64_column("value").unwrap(), &vec![8.0, 8.0]);
        assert_eq!(out.n_rows(), 2);
    }

    #[test]
    fn queries_without_where_match_the_filtered_path() {
        // Without a WHERE the source frame is borrowed; with a WHERE that
        // keeps every row it is filtered into a copy. Both must agree.
        let df = sample();
        let env = env_with(&df);
        let projections = ["*", "lev, tag", "value * 2 AS y"].map(|i| (i, "", "value", "lev"));
        let aggregate = (
            "tag, COUNT(*) AS n, SUM(value) AS s",
            "GROUP BY tag",
            "s",
            "n",
        );
        for (items, group, by1, by2) in projections.into_iter().chain([aggregate]) {
            for tail in [
                String::new(),
                format!("ORDER BY {by1} DESC"),
                "LIMIT 3".to_string(),
                format!("ORDER BY {by2} DESC LIMIT 2"),
            ] {
                let plain = format!("SELECT {items} FROM df {group} {tail}");
                let filtered = format!("SELECT {items} FROM df WHERE lev >= 0 {group} {tail}");
                assert_eq!(
                    sqldf(&plain, &env).unwrap(),
                    sqldf(&filtered, &env).unwrap(),
                    "{plain}"
                );
            }
        }
        // Explicit results, and the source frame is left as it was.
        let out = sqldf("SELECT * FROM df ORDER BY value DESC", &env).unwrap();
        assert_eq!(
            out.f64_column("value").unwrap(),
            &vec![8.0, 8.0, 5.0, 3.0, 1.0]
        );
        assert_eq!(
            out.column("lev").unwrap(),
            &Column::I64(vec![1, 2, 0, 0, 1])
        );
        let out = sqldf("SELECT lev, tag FROM df LIMIT 2", &env).unwrap();
        assert_eq!(out, df.select(&["lev", "tag"]).unwrap().head(2));
        let out = sqldf("SELECT COUNT(*) AS n, MAX(value) AS hi FROM df", &env).unwrap();
        assert_eq!(out.f64_column("n").unwrap(), &vec![5.0]);
        assert_eq!(out.f64_column("hi").unwrap(), &vec![8.0]);
        assert_eq!(df, sample());
    }

    #[test]
    fn order_by_unselected_column() {
        let df = sample();
        let out = sqldf(
            "SELECT tag FROM df ORDER BY value ASC LIMIT 1",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.column("tag").unwrap().value(0), Value::Str("b".into()));
    }

    #[test]
    fn arithmetic_expressions() {
        let df = sample();
        let out = sqldf(
            "SELECT value * 2 + 1 AS y FROM df WHERE lev = 0",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.f64_column("y").unwrap(), &vec![11.0, 7.0]);
        let out = sqldf("SELECT -value AS n FROM df LIMIT 1", &env_with(&df)).unwrap();
        assert_eq!(out.f64_column("n").unwrap(), &vec![-5.0]);
    }

    #[test]
    fn global_aggregates() {
        let df = sample();
        let out = sqldf(
            "SELECT COUNT(*) AS n, SUM(value) AS s, AVG(value) AS a, MIN(value) AS lo, MAX(value) AS hi FROM df",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.f64_column("n").unwrap()[0], 5.0);
        assert_eq!(out.f64_column("s").unwrap()[0], 25.0);
        assert_eq!(out.f64_column("a").unwrap()[0], 5.0);
        assert_eq!(out.f64_column("lo").unwrap()[0], 1.0);
        assert_eq!(out.f64_column("hi").unwrap()[0], 8.0);
    }

    #[test]
    fn group_by() {
        let df = sample();
        let out = sqldf(
            "SELECT lev, MAX(value) AS peak, COUNT(*) AS n FROM df GROUP BY lev ORDER BY lev",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.n_rows(), 3);
        assert_eq!(out.f64_column("peak").unwrap(), &vec![5.0, 8.0, 8.0]);
        assert_eq!(out.f64_column("n").unwrap(), &vec![2.0, 2.0, 1.0]);
        match out.column("lev").unwrap() {
            Column::I64(v) => assert_eq!(v, &vec![0, 1, 2]),
            other => panic!("group key lost type: {other:?}"),
        }
    }

    #[test]
    fn group_by_string_key() {
        let df = sample();
        let out = sqldf(
            "SELECT tag, SUM(value) AS s FROM df GROUP BY tag ORDER BY tag",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.f64_column("s").unwrap(), &vec![21.0, 4.0]);
    }

    #[test]
    fn aggregate_over_empty_input() {
        let df = sample();
        let out = sqldf(
            "SELECT COUNT(*) AS n FROM df WHERE value > 100",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.f64_column("n").unwrap(), &vec![0.0]);
    }

    #[test]
    fn errors_are_reported() {
        let df = sample();
        let env = env_with(&df);
        assert!(sqldf("SELECT FROM df", &env).is_err());
        assert!(sqldf("SELECT * FROM nope", &env).is_err());
        assert!(sqldf("SELECT missing FROM df", &env).is_err());
        assert!(sqldf("SELECT value FROM df LIMIT -1", &env).is_err());
        assert!(sqldf("SELECT value FROM df extra", &env).is_err());
        assert!(
            sqldf("SELECT tag, SUM(value) FROM df", &env).is_err(),
            "tag not grouped"
        );
        assert!(sqldf("SELECT 'unterminated FROM df", &env).is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let df = sample();
        let out = sqldf(
            "select value from df where value >= 8 order by value desc",
            &env_with(&df),
        )
        .unwrap();
        assert_eq!(out.n_rows(), 2);
    }

    #[test]
    fn count_column_ignores_nothing_min_max_skip_nan() {
        let df = DataFrame::new()
            .with_column("x", Column::F64(vec![1.0, f64::NAN, 3.0]))
            .unwrap();
        let out = sqldf("SELECT MIN(x) AS lo, MAX(x) AS hi FROM df", &env_with(&df)).unwrap();
        assert_eq!(out.f64_column("lo").unwrap()[0], 1.0);
        assert_eq!(out.f64_column("hi").unwrap()[0], 3.0);
    }

    #[test]
    fn where_predicate_extraction() {
        use crate::columnar::{CmpOp, Lit, Predicate};
        // Convertible shapes, including flipped literal-op-column and
        // folded unary minus.
        let p = where_predicate("SELECT * FROM df WHERE value > 3").unwrap();
        assert_eq!(
            p,
            Some(Predicate::Cmp {
                col: "value".into(),
                op: CmpOp::Gt,
                lit: Lit::Num(3.0),
            })
        );
        let p = where_predicate("SELECT * FROM df WHERE 3 < value AND NOT tag = 'b'").unwrap();
        let want = Predicate::And(
            Box::new(Predicate::Cmp {
                col: "value".into(),
                op: CmpOp::Gt,
                lit: Lit::Num(3.0),
            }),
            Box::new(Predicate::Not(Box::new(Predicate::Cmp {
                col: "tag".into(),
                op: CmpOp::Eq,
                lit: Lit::Str("b".into()),
            }))),
        );
        assert_eq!(p, Some(want));
        let p = where_predicate("SELECT * FROM df WHERE value <= -2").unwrap();
        assert_eq!(
            p,
            Some(Predicate::Cmp {
                col: "value".into(),
                op: CmpOp::Le,
                lit: Lit::Num(-2.0),
            })
        );
        // Unconvertible shapes degrade to None, not an error.
        assert_eq!(where_predicate("SELECT * FROM df").unwrap(), None);
        assert_eq!(
            where_predicate("SELECT * FROM df WHERE value + 1 > 3").unwrap(),
            None
        );
        assert_eq!(
            where_predicate("SELECT * FROM df WHERE value > lev").unwrap(),
            None
        );
        assert_eq!(
            where_predicate("SELECT * FROM df WHERE tag != -'b'").unwrap(),
            None,
            "negated string widens to NaN in eval; must not convert as a string"
        );
        // Unparsable SQL is still an error.
        assert!(where_predicate("SELECT FROM df").is_err());
    }

    #[test]
    fn vectorised_where_matches_row_path() {
        // Same logical filter, one convertible (columnar path) and one not
        // (forced row path via `+ 0`); must agree even with NaN present.
        let df = DataFrame::new()
            .with_column("v", Column::F64(vec![1.0, f64::NAN, 3.0, -2.0]))
            .unwrap()
            .with_column(
                "tag",
                Column::Str(vec!["a".into(), "b".into(), "a".into(), "c".into()]),
            )
            .unwrap();
        let env = env_with(&df);
        for (fast, slow) in [
            ("v > 0", "v + 0 > 0"),
            ("v != 3", "v + 0 != 3"), // NaN satisfies !=
            ("NOT v >= 1", "NOT v + 0 >= 1"),
            ("tag = 'a' OR v < 0", "tag = 'a' OR v + 0 < 0"),
        ] {
            let a = sqldf(&format!("SELECT * FROM df WHERE {fast}"), &env).unwrap();
            let b = sqldf(&format!("SELECT * FROM df WHERE {slow}"), &env).unwrap();
            // Debug-compare: frame PartialEq is false on NaN cells even
            // when both sides hold the very same rows.
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{fast} vs {slow}");
        }
        // Missing column stays a typed error on the fast path.
        assert!(sqldf("SELECT * FROM df WHERE nope = 1", &env).is_err());
    }

    #[test]
    fn vectorised_global_aggregates_match_row_path() {
        let df = DataFrame::new()
            .with_column("x", Column::F64(vec![1.0, f64::NAN, 3.0, -2.0]))
            .unwrap()
            .with_column("i", Column::I64(vec![4, 5, 6, 7]))
            .unwrap()
            .with_column("s", Column::Str(vec!["a".into(); 4]))
            .unwrap();
        let env = env_with(&df);
        // Fast path (bare columns) vs forced row path (`x + 0`).
        let fast = sqldf(
            "SELECT COUNT(*) AS n, COUNT(x) AS nx, SUM(x) AS sx, AVG(x) AS ax, \
             MIN(x) AS lo, MAX(x) AS hi, SUM(i) AS si FROM df",
            &env,
        )
        .unwrap();
        let slow = sqldf(
            "SELECT COUNT(*) AS n, COUNT(x + 0) AS nx, SUM(x + 0) AS sx, AVG(x + 0) AS ax, \
             MIN(x + 0) AS lo, MAX(x + 0) AS hi, SUM(i + 0) AS si FROM df",
            &env,
        )
        .unwrap();
        assert_eq!(fast, slow);
        assert_eq!(fast.f64_column("n").unwrap(), &vec![4.0]);
        assert_eq!(
            fast.f64_column("nx").unwrap(),
            &vec![4.0],
            "COUNT keeps NaN"
        );
        assert_eq!(fast.f64_column("lo").unwrap(), &vec![-2.0]);
        // String column: aggregates see NaN cells — COUNT keeps, others skip.
        let s = sqldf(
            "SELECT COUNT(s) AS c, SUM(s) AS t, MIN(s) AS m FROM df",
            &env,
        )
        .unwrap();
        assert_eq!(s.f64_column("c").unwrap(), &vec![4.0]);
        assert_eq!(s.f64_column("t").unwrap(), &vec![0.0], "empty SUM is 0");
        assert!(s.f64_column("m").unwrap()[0].is_nan(), "empty MIN is NaN");
    }

    #[test]
    fn top_one_percent_pattern() {
        // The paper's top-1% selection: threshold then filter.
        let n = 1000;
        let df = DataFrame::new()
            .with_column("v", Column::F64((0..n).map(|i| i as f64).collect()))
            .unwrap();
        let env = env_with(&df);
        let top = sqldf("SELECT v FROM df ORDER BY v DESC LIMIT 10", &env).unwrap();
        assert_eq!(top.f64_column("v").unwrap()[0], 999.0);
        let pct = sqldf("SELECT v FROM df WHERE v >= 990", &env).unwrap();
        assert_eq!(pct.n_rows(), 10);
    }
}
