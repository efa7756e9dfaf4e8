//! Evaluation of row predicates against concrete rows.
//!
//! The engine binds a transaction's scalar environment (parameters, locals)
//! before evaluation, so `RowExpr::Outer` terms resolve to concrete values.
//! Column and literal terms are compared as borrows of the row and the
//! predicate, so testing a row allocates nothing.

use crate::schema::Schema;
use crate::table::Row;
use crate::value::Value;
use semcc_logic::expr::Var;
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::CmpOp;
use std::borrow::Cow;

/// A scalar environment resolving outer variables to values.
pub type Env<'a> = &'a dyn Fn(&Var) -> Option<Value>;

/// The always-empty environment.
pub fn empty_env(_: &Var) -> Option<Value> {
    None
}

/// The value of a row term: strings borrow from the row or the predicate
/// unless an outer binding supplied them.
enum Term<'a> {
    Int(i64),
    Str(Cow<'a, str>),
}

impl<'a> Term<'a> {
    fn of(v: &'a Value) -> Self {
        match v {
            Value::Int(i) => Term::Int(*i),
            Value::Str(s) => Term::Str(Cow::Borrowed(s)),
        }
    }

    fn int(&self) -> Option<i64> {
        match self {
            Term::Int(i) => Some(*i),
            Term::Str(_) => None,
        }
    }
}

fn eval_row_expr<'a>(
    schema: &Schema,
    row: &'a Row,
    e: &'a RowExpr,
    env: Env<'_>,
) -> Option<Term<'a>> {
    match e {
        RowExpr::Field(c) => {
            let idx = schema.columns.iter().position(|col| col == c)?;
            row.get(idx).map(Term::of)
        }
        RowExpr::Int(v) => Some(Term::Int(*v)),
        RowExpr::Str(s) => Some(Term::Str(Cow::Borrowed(s))),
        RowExpr::Outer(expr) => {
            // Try a direct variable lookup first so string-valued outers work.
            if let semcc_logic::Expr::Var(v) = expr {
                if let Some(val) = env(v) {
                    return Some(match val {
                        Value::Int(i) => Term::Int(i),
                        Value::Str(s) => Term::Str(Cow::Owned(s)),
                    });
                }
            }
            let int_env = |v: &Var| env(v).and_then(|val| val.as_int());
            expr.eval(&int_env).map(Term::Int)
        }
        RowExpr::Add(a, b) => {
            let x = eval_row_expr(schema, row, a, env)?.int()?;
            let y = eval_row_expr(schema, row, b, env)?.int()?;
            Some(Term::Int(x.checked_add(y)?))
        }
        RowExpr::Sub(a, b) => {
            let x = eval_row_expr(schema, row, a, env)?.int()?;
            let y = eval_row_expr(schema, row, b, env)?.int()?;
            Some(Term::Int(x.checked_sub(y)?))
        }
        RowExpr::Mul(a, b) => {
            let x = eval_row_expr(schema, row, a, env)?.int()?;
            let y = eval_row_expr(schema, row, b, env)?.int()?;
            Some(Term::Int(x.checked_mul(y)?))
        }
    }
}

fn eval_cmp(op: CmpOp, a: &Term<'_>, b: &Term<'_>) -> Option<bool> {
    match (a, b) {
        (Term::Int(x), Term::Int(y)) => Some(op.apply(*x, *y)),
        (Term::Str(x), Term::Str(y)) => match op {
            CmpOp::Eq => Some(x == y),
            CmpOp::Ne => Some(x != y),
            // Ordered string comparison is outside the model.
            _ => None,
        },
        // Type confusion: no verdict.
        _ => None,
    }
}

/// Evaluate a row predicate. Returns `None` when the predicate cannot be
/// decided (unbound outer variable, type mismatch); callers treat `None`
/// as "does not match" for scans but may surface it as an error.
pub fn eval_row_pred(schema: &Schema, row: &Row, pred: &RowPred, env: Env<'_>) -> Option<bool> {
    match pred {
        RowPred::True => Some(true),
        RowPred::False => Some(false),
        RowPred::Cmp(op, a, b) => {
            let va = eval_row_expr(schema, row, a, env)?;
            let vb = eval_row_expr(schema, row, b, env)?;
            eval_cmp(*op, &va, &vb)
        }
        RowPred::Not(p) => eval_row_pred(schema, row, p, env).map(|b| !b),
        RowPred::And(ps) => {
            let mut all = true;
            for p in ps {
                match eval_row_pred(schema, row, p, env) {
                    Some(true) => {}
                    Some(false) => return Some(false),
                    None => all = false,
                }
            }
            if all {
                Some(true)
            } else {
                None
            }
        }
        RowPred::Or(ps) => {
            let mut any_unknown = false;
            for p in ps {
                match eval_row_pred(schema, row, p, env) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => any_unknown = true,
                }
            }
            if any_unknown {
                None
            } else {
                Some(false)
            }
        }
    }
}

/// Whether the row definitely matches (i.e. evaluates to `Some(true)`).
pub fn row_matches(schema: &Schema, row: &Row, pred: &RowPred, env: Env<'_>) -> bool {
    eval_row_pred(schema, row, pred, env) == Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::Expr;

    fn schema() -> Schema {
        Schema::new("orders", &["order_info", "cust", "date", "done"], &["order_info"])
    }

    fn row() -> Row {
        vec![Value::Int(1), Value::str("alice"), Value::Int(20), Value::bool(false)]
    }

    #[test]
    fn int_and_string_matching() {
        let s = schema();
        let r = row();
        assert!(row_matches(&s, &r, &RowPred::field_eq_int("date", 20), &empty_env));
        assert!(!row_matches(&s, &r, &RowPred::field_eq_int("date", 21), &empty_env));
        assert!(row_matches(&s, &r, &RowPred::field_eq_str("cust", "alice"), &empty_env));
        assert!(!row_matches(&s, &r, &RowPred::field_eq_str("cust", "bob"), &empty_env));
    }

    #[test]
    fn outer_binding() {
        let s = schema();
        let r = row();
        let p = RowPred::field_eq_outer("date", Expr::param("today"));
        let env = |v: &Var| {
            if v == &Var::param("today") {
                Some(Value::Int(20))
            } else {
                None
            }
        };
        assert!(row_matches(&s, &r, &p, &env));
        assert!(!row_matches(&s, &r, &p, &empty_env), "unbound outer never matches");
    }

    #[test]
    fn outer_string_binding() {
        let s = schema();
        let r = row();
        let p = RowPred::field_eq_outer("cust", Expr::param("customer"));
        let env = |v: &Var| {
            if v == &Var::param("customer") {
                Some(Value::str("alice"))
            } else {
                None
            }
        };
        assert!(row_matches(&s, &r, &p, &env));
    }

    #[test]
    fn outer_arithmetic() {
        let s = schema();
        let r = row();
        let p = RowPred::field_eq_outer("date", Expr::param("base").add(Expr::int(5)));
        let env = |v: &Var| {
            if v == &Var::param("base") {
                Some(Value::Int(15))
            } else {
                None
            }
        };
        assert!(row_matches(&s, &r, &p, &env));
    }

    #[test]
    fn connectives() {
        let s = schema();
        let r = row();
        let p = RowPred::and([RowPred::field_eq_int("date", 20), RowPred::field_eq_int("done", 0)]);
        assert!(row_matches(&s, &r, &p, &empty_env));
        let q = RowPred::or([
            RowPred::field_eq_int("date", 99),
            RowPred::field_eq_str("cust", "alice"),
        ]);
        assert!(row_matches(&s, &r, &q, &empty_env));
        assert!(row_matches(&s, &r, &RowPred::not(RowPred::field_eq_int("date", 99)), &empty_env));
    }

    #[test]
    fn type_confusion_is_unknown_not_match() {
        let s = schema();
        let r = row();
        // comparing string column to int
        let p = RowPred::field_eq_int("cust", 5);
        assert_eq!(eval_row_pred(&s, &r, &p, &empty_env), None);
        assert!(!row_matches(&s, &r, &p, &empty_env));
        // but Or with a true branch still matches
        let q = RowPred::or([p, RowPred::field_eq_int("date", 20)]);
        assert!(row_matches(&s, &r, &q, &empty_env));
    }

    #[test]
    fn missing_column_is_unknown() {
        let s = schema();
        let r = row();
        let p = RowPred::field_eq_int("nope", 1);
        assert_eq!(eval_row_pred(&s, &r, &p, &empty_env), None);
    }

    #[test]
    fn range_predicates() {
        let s = schema();
        let r = row();
        let p = RowPred::cmp(CmpOp::Le, RowExpr::field("date"), RowExpr::Int(25));
        assert!(row_matches(&s, &r, &p, &empty_env));
        let q = RowPred::cmp(CmpOp::Gt, RowExpr::field("date"), RowExpr::Int(25));
        assert!(!row_matches(&s, &r, &q, &empty_env));
    }
}
