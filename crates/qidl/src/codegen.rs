//! The QIDL → Rust language mapping: the aspect weaver's static half.
//!
//! §3.3 of the paper: "the QIDL compiler acts as an aspect weaver, which
//! combines the application objects with QoS provision". For every
//! interface the generated code contains
//!
//! * a typed **application trait** (pure business logic — what the
//!   application programmer implements, untouched by QoS),
//! * a **servant adapter** (`<I>Servant`) mapping wire `Any` arguments to
//!   typed calls — the server skeleton of Fig. 2; wrap it in a
//!   `weaver::WovenServant` to attach QoS implementations,
//! * a typed **client stub** (`<I>Stub`) over `weaver::ClientStub`, whose
//!   every call runs through the installed mediator chain,
//!
//! and for every QoS characteristic
//!
//! * a typed **parameter struct** (`<Q>Params`) with the declared
//!   defaults, convertible to negotiation parameter lists,
//! * operation-name constants (`mod <q>_ops`) for the management, peer
//!   and integration operations, and
//! * a typed **QoS skeleton** (`<Q>Ops` trait + `<Q>QosSkeleton`
//!   adapter onto `weaver::QosImplementation`) — the generated
//!   "QoS-Skel" of Fig. 2 that the QoS implementor fills in.
//!
//! Structs map to plain Rust structs with `to_any`/`from_any`.
//!
//! The output is a self-contained Rust module (usable via `mod x;` or
//! `include!`) depending only on the `orb` and `weaver` crates.

use crate::ast::*;
use crate::sema;
use std::fmt::Write;

/// Generate Rust source for a semantically checked [`Spec`].
///
/// The caller is responsible for having run [`crate::sema::check`] (or
/// [`crate::compile`], which includes it); generating from an unchecked
/// spec may produce non-compiling code.
pub fn generate(spec: &Spec) -> String {
    let mut g = Generator { spec, out: String::new() };
    g.file_header();
    for def in &spec.definitions {
        match def {
            Definition::Struct(s) => g.struct_def(s),
            Definition::Exception(e) => g.exception_def(e),
            Definition::Qos(q) => g.qos_def(q),
            Definition::Interface(i) => g.interface_def(i),
        }
    }
    g.out
}

struct Generator<'a> {
    spec: &'a Spec,
    out: String,
}

/// Rust type for a QIDL type.
fn rust_type(ty: &Type) -> String {
    match ty {
        Type::Void => "()".to_string(),
        Type::Boolean => "bool".to_string(),
        Type::Octet => "u8".to_string(),
        Type::Long => "i32".to_string(),
        Type::ULong => "u32".to_string(),
        Type::LongLong => "i64".to_string(),
        Type::ULongLong => "u64".to_string(),
        Type::Double => "f64".to_string(),
        Type::Str => "String".to_string(),
        Type::Any => "Any".to_string(),
        Type::Sequence(e) if **e == Type::Octet => "Vec<u8>".to_string(),
        Type::Sequence(e) => format!("Vec<{}>", rust_type(e)),
        Type::Named(n) => n.clone(),
    }
}

/// Expression converting typed `expr` into an `Any`.
fn to_any_expr(expr: &str, ty: &Type) -> String {
    match ty {
        Type::Void => "Any::Void".to_string(),
        Type::Boolean => format!("Any::Bool({expr})"),
        Type::Octet => format!("Any::Octet({expr})"),
        Type::Long => format!("Any::Long({expr})"),
        Type::ULong => format!("Any::ULong({expr})"),
        Type::LongLong => format!("Any::LongLong({expr})"),
        Type::ULongLong => format!("Any::ULongLong({expr})"),
        Type::Double => format!("Any::Double({expr})"),
        Type::Str => format!("Any::Str({expr})"),
        Type::Any => expr.to_string(),
        Type::Sequence(e) if **e == Type::Octet => format!("Any::Bytes({expr})"),
        Type::Sequence(e) => format!(
            "Any::Sequence({expr}.into_iter().map(|item| {}).collect())",
            to_any_expr("item", e)
        ),
        Type::Named(_) => format!("{expr}.to_any()"),
    }
}

/// Expression converting `&Any` expr into the typed value (inside a
/// function returning `Result<_, OrbError>`; uses `?`).
fn from_any_expr(expr: &str, ty: &Type, ctx: &str) -> String {
    match ty {
        Type::Void => "()".to_string(),
        Type::Boolean => format!("support::expect_bool({expr}, \"{ctx}\")?"),
        Type::Octet => format!("support::expect_octet({expr}, \"{ctx}\")?"),
        Type::Long => format!("support::expect_long({expr}, \"{ctx}\")?"),
        Type::ULong => format!("support::expect_ulong({expr}, \"{ctx}\")?"),
        Type::LongLong => format!("support::expect_longlong({expr}, \"{ctx}\")?"),
        Type::ULongLong => format!("support::expect_ulonglong({expr}, \"{ctx}\")?"),
        Type::Double => format!("support::expect_double({expr}, \"{ctx}\")?"),
        Type::Str => format!("support::expect_string({expr}, \"{ctx}\")?"),
        Type::Any => format!("({expr}).clone()"),
        Type::Sequence(e) if **e == Type::Octet => {
            format!("support::expect_bytes({expr}, \"{ctx}\")?")
        }
        Type::Sequence(e) => {
            let inner = from_any_expr("item", e, ctx);
            format!(
                "{{ let items = support::expect_seq({expr}, \"{ctx}\")?; \
                 let mut out = Vec::with_capacity(items.len()); \
                 for item in items {{ out.push({inner}); }} out }}"
            )
        }
        Type::Named(n) => format!("{n}::from_any({expr})?"),
    }
}

/// The outputs of an operation: return value first, then out/inout params.
fn outputs(op: &Operation) -> Vec<(String, Type)> {
    let mut outs = Vec::new();
    if op.ret != Type::Void {
        outs.push(("return value".to_string(), op.ret.clone()));
    }
    for p in &op.params {
        if matches!(p.direction, Direction::Out | Direction::InOut) {
            outs.push((p.name.clone(), p.ty.clone()));
        }
    }
    outs
}

/// The inputs of an operation: in and inout params.
fn inputs(op: &Operation) -> Vec<&Param> {
    op.params.iter().filter(|p| matches!(p.direction, Direction::In | Direction::InOut)).collect()
}

/// The Rust result type of an operation's outputs.
fn output_type(op: &Operation) -> String {
    let outs = outputs(op);
    match outs.len() {
        0 => "()".to_string(),
        1 => rust_type(&outs[0].1),
        _ => {
            let parts: Vec<String> = outs.iter().map(|(_, t)| rust_type(t)).collect();
            format!("({})", parts.join(", "))
        }
    }
}

fn snake(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

impl Generator<'_> {
    fn line(&mut self, s: &str) {
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn file_header(&mut self) {
        self.line("// Generated by the MAQS QIDL compiler. DO NOT EDIT.");
        self.line("// The conversion glue is uniform, not idiomatic; exactly these");
        self.line("// lints are expected of it, so only they are allowed.");
        self.line("#![allow(dead_code, unused_variables, unused_imports)]");
        self.line("#![allow(clippy::clone_on_copy, clippy::needless_borrow)]");
        self.line("#![allow(clippy::needless_question_mark, clippy::manual_is_multiple_of)]");
        self.line("");
        self.line("use orb::{Any, Ior, Orb, OrbError, Servant};");
        self.line("");
        self.line("/// Conversion helpers shared by the generated code.");
        self.line("pub mod support {");
        self.line("    use orb::{Any, OrbError};");
        for (name, ty, pat) in [
            ("expect_bool", "bool", "Any::Bool(x) => Ok(*x)"),
            ("expect_octet", "u8", "Any::Octet(x) => Ok(*x)"),
            ("expect_long", "i32", "Any::Long(x) => Ok(*x)"),
            ("expect_ulong", "u32", "Any::ULong(x) => Ok(*x)"),
            ("expect_longlong", "i64", "Any::LongLong(x) => Ok(*x)"),
            ("expect_ulonglong", "u64", "Any::ULongLong(x) => Ok(*x)"),
            ("expect_double", "f64", "Any::Double(x) => Ok(*x)"),
            ("expect_string", "String", "Any::Str(x) => Ok(x.clone())"),
            ("expect_bytes", "Vec<u8>", "Any::Bytes(x) => Ok(x.clone())"),
        ] {
            self.line(&format!(
                "    pub fn {name}(v: &Any, ctx: &str) -> Result<{ty}, OrbError> {{"
            ));
            self.line("        match v {");
            self.line(&format!("            {pat},"));
            self.line(&format!(
                "            other => Err(OrbError::BadParam(format!(\"{{ctx}}: expected {ty}, got {{other}}\"))),"
            ));
            self.line("        }");
            self.line("    }");
        }
        self.line(
            "    pub fn expect_seq<'a>(v: &'a Any, ctx: &str) -> Result<&'a [Any], OrbError> {",
        );
        self.line("        match v {");
        self.line("            Any::Sequence(items) => Ok(items),");
        self.line("            other => Err(OrbError::BadParam(format!(\"{ctx}: expected sequence, got {other}\"))),");
        self.line("        }");
        self.line("    }");
        self.line(
            "    pub fn expect_arity(args: &[Any], n: usize, ctx: &str) -> Result<(), OrbError> {",
        );
        self.line("        if args.len() == n { Ok(()) } else {");
        self.line("            Err(OrbError::BadParam(format!(\"{ctx}: expected {n} argument(s), got {}\", args.len())))");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
    }

    fn struct_def(&mut self, s: &StructDef) {
        self.line(&format!("/// QIDL struct `{}`.", s.name));
        self.line("#[derive(Debug, Clone, PartialEq, Default)]");
        self.line(&format!("pub struct {} {{", s.name));
        for (fname, fty) in &s.fields {
            self.line(&format!("    pub {fname}: {},", rust_type(fty)));
        }
        self.line("}");
        self.line("");
        self.line(&format!("impl {} {{", s.name));
        self.line("    /// Marshal into a self-describing `Any`.");
        self.line("    pub fn to_any(&self) -> Any {");
        self.line(&format!("        Any::Struct(\"{}\".to_string(), vec![", s.name));
        for (fname, fty) in &s.fields {
            let expr = to_any_expr(&format!("self.{fname}.clone()"), fty);
            self.line(&format!("            (\"{fname}\".to_string(), {expr}),"));
        }
        self.line("        ])");
        self.line("    }");
        self.line("    /// Unmarshal from an `Any`.");
        self.line("    pub fn from_any(v: &Any) -> Result<Self, OrbError> {");
        self.line("        let mut out = Self::default();");
        self.line("        match v {");
        self.line(&format!(
            "            Any::Struct(name, fields) if name == \"{}\" => {{",
            s.name
        ));
        self.line("                for (fname, fval) in fields {");
        self.line("                    match fname.as_str() {");
        for (fname, fty) in &s.fields {
            let conv = from_any_expr("fval", fty, &format!("{}.{}", s.name, fname));
            self.line(&format!("                        \"{fname}\" => out.{fname} = {conv},"));
        }
        self.line("                        _ => {}");
        self.line("                    }");
        self.line("                }");
        self.line("                Ok(out)");
        self.line("            }");
        self.line(&format!(
            "            other => Err(OrbError::BadParam(format!(\"expected struct {}, got {{other}}\"))),",
            s.name
        ));
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
    }

    fn exception_def(&mut self, e: &ExceptionDef) {
        self.line(&format!("/// QIDL user exception `{}`.", e.name));
        self.line("#[derive(Debug, Clone, PartialEq, Default)]");
        self.line(&format!("pub struct {} {{", e.name));
        for (fname, fty) in &e.fields {
            self.line(&format!("    pub {fname}: {},", rust_type(fty)));
        }
        self.line("}");
        self.line("");
        self.line(&format!("impl {} {{", e.name));
        self.line("    /// Wire form used inside `OrbError::UserException`.");
        self.line("    pub fn to_orb_error(&self) -> OrbError {");
        let mut detail = e.name.to_string();
        detail.push('(');
        let parts: Vec<String> = e.fields.iter().map(|(f, _)| format!("{f}={{:?}}")).collect();
        detail.push_str(&parts.join(", "));
        detail.push(')');
        let args: Vec<String> = e.fields.iter().map(|(f, _)| format!("self.{f}")).collect();
        if args.is_empty() {
            self.line(&format!("        OrbError::UserException(\"{detail}\".to_string())"));
        } else {
            self.line(&format!(
                "        OrbError::UserException(format!(\"{detail}\", {}))",
                args.join(", ")
            ));
        }
        self.line("    }");
        self.line("    /// Whether a received error is this exception.");
        self.line("    pub fn matches(err: &OrbError) -> bool {");
        self.line(&format!(
            "        matches!(err, OrbError::UserException(s) if s.starts_with(\"{}(\"))",
            e.name
        ));
        self.line("    }");
        self.line("}");
        self.line("");
    }

    fn qos_def(&mut self, q: &QosDef) {
        let cat = q.category.as_deref().unwrap_or("uncategorized");
        self.line(&format!("/// Parameters of QoS characteristic `{}` (category: {cat}).", q.name));
        self.line("#[derive(Debug, Clone, PartialEq)]");
        self.line(&format!("pub struct {}Params {{", q.name));
        for p in &q.params {
            self.line(&format!("    pub {}: {},", p.name, rust_type(&p.ty)));
        }
        self.line("}");
        self.line("");
        self.line(&format!("impl Default for {}Params {{", q.name));
        self.line("    fn default() -> Self {");
        self.line("        Self {");
        for p in &q.params {
            let value = match (&p.default, &p.ty) {
                (Some(Literal::Int(v)), Type::Double) => format!("{v}f64"),
                (Some(Literal::Int(v)), _) => v.to_string(),
                (Some(Literal::Float(v)), _) => format!("{v}f64"),
                (Some(Literal::Str(s)), _) => format!("{s:?}.to_string()"),
                (Some(Literal::Bool(b)), _) => b.to_string(),
                (None, _) => "Default::default()".to_string(),
            };
            self.line(&format!("            {}: {value},", p.name));
        }
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
        self.line(&format!("impl {}Params {{", q.name));
        self.line("    /// As `(name, value)` pairs for negotiation / QoS contexts.");
        self.line("    pub fn to_pairs(&self) -> Vec<(String, Any)> {");
        self.line("        vec![");
        for p in &q.params {
            let expr = to_any_expr(&format!("self.{}.clone()", p.name), &p.ty);
            self.line(&format!("            (\"{}\".to_string(), {expr}),", p.name));
        }
        self.line("        ]");
        self.line("    }");
        self.line("}");
        self.line("");
        self.line(&format!(
            "/// Operation names of QoS characteristic `{}`, by responsibility.",
            q.name
        ));
        self.line(&format!("pub mod {}_ops {{", snake(&q.name)));
        for (group, ops) in
            [("management", &q.management), ("peer", &q.peer), ("integration", &q.integration)]
        {
            for op in ops {
                self.line(&format!("    /// {group} operation `{}`.", op.name));
                self.line(&format!(
                    "    pub const {}: &str = \"{}\";",
                    op.name.to_uppercase(),
                    op.name
                ));
            }
        }
        self.line("}");
        self.line("");
        self.qos_skeleton(q);
    }

    /// The Fig. 2 server-side QoS skeleton: a typed trait for the QoS
    /// implementor plus an adapter onto `weaver::QosImplementation`.
    fn qos_skeleton(&mut self, q: &QosDef) {
        let name = &q.name;
        self.line(&format!("/// Server-side operations of QoS characteristic `{name}` — the"));
        self.line("/// QoS implementor fills this in (Fig. 2's \"QoS-Impl.\" box).");
        self.line(&format!("pub trait {name}Ops: Send + Sync {{"));
        for op in q.all_operations() {
            let mut sig = format!("    fn {}(&self, server: &dyn Servant", op.name);
            for p in inputs(op) {
                sig.push_str(&format!(", {}: {}", p.name, rust_type(&p.ty)));
            }
            sig.push_str(&format!(") -> Result<{}, OrbError>;", output_type(op)));
            self.line(&sig);
        }
        self.line("    /// Called before each application request (veto = error).");
        self.line("    fn prolog(&self, op: &str, args: &[Any]) -> Result<(), OrbError> {");
        self.line("        let (_, _) = (op, args);");
        self.line("        Ok(())");
        self.line("    }");
        self.line("    /// Called after each application request.");
        self.line(
            "    fn epilog(&self, op: &str, args: &[Any], result: &mut Result<Any, OrbError>) {",
        );
        self.line("        let (_, _, _) = (op, args, result);");
        self.line("    }");
        self.line("}");
        self.line("");
        self.line(&format!("/// Adapter from a typed [`{name}Ops`] implementation onto the"));
        self.line("/// runtime weaving layer; install into a `weaver::WovenServant`.");
        self.line(&format!("pub struct {name}QosSkeleton<T: {name}Ops> {{"));
        self.line("    inner: T,");
        self.line("}");
        self.line("");
        self.line(&format!("impl<T: {name}Ops> {name}QosSkeleton<T> {{"));
        self.line("    /// Wrap a typed QoS implementation.");
        self.line("    pub fn new(inner: T) -> Self {");
        self.line("        Self { inner }");
        self.line("    }");
        self.line("}");
        self.line("");
        self.line(&format!(
            "impl<T: {name}Ops> weaver::QosImplementation for {name}QosSkeleton<T> {{"
        ));
        self.line("    fn characteristic(&self) -> &str {");
        self.line(&format!("        \"{name}\""));
        self.line("    }");
        self.line("    fn prolog(&self, op: &str, args: &[Any]) -> Result<(), OrbError> {");
        self.line("        self.inner.prolog(op, args)");
        self.line("    }");
        self.line(
            "    fn epilog(&self, op: &str, args: &[Any], result: &mut Result<Any, OrbError>) {",
        );
        self.line("        self.inner.epilog(op, args, result)");
        self.line("    }");
        self.line("    fn qos_op(&self, op: &str, args: &[Any], server: &dyn Servant) -> Result<Any, OrbError> {");
        self.line("        match op {");
        for op in q.all_operations() {
            let ins = inputs(op);
            let outs = outputs(op);
            self.line(&format!("            \"{}\" => {{", op.name));
            self.line(&format!(
                "                support::expect_arity(args, {}, \"{}\")?;",
                ins.len(),
                op.name
            ));
            for (idx, prm) in ins.iter().enumerate() {
                let conv = from_any_expr(
                    &format!("&args[{idx}]"),
                    &prm.ty,
                    &format!("{}.{}", op.name, prm.name),
                );
                self.line(&format!("                let {} = {conv};", prm.name));
            }
            let call_args: Vec<&str> = ins.iter().map(|p| p.name.as_str()).collect();
            let call = if call_args.is_empty() {
                format!("self.inner.{}(server)", op.name)
            } else {
                format!("self.inner.{}(server, {})", op.name, call_args.join(", "))
            };
            match outs.len() {
                0 => {
                    self.line(&format!("                {call}?;"));
                    self.line("                Ok(Any::Void)");
                }
                1 => {
                    self.line(&format!("                let out = {call}?;"));
                    self.line(&format!("                Ok({})", to_any_expr("out", &outs[0].1)));
                }
                n => {
                    let names: Vec<String> = (0..n).map(|k| format!("out{k}")).collect();
                    self.line(&format!("                let ({}) = {call}?;", names.join(", ")));
                    self.line("                Ok(Any::Sequence(vec![");
                    for (k, (_, ty)) in outs.iter().enumerate() {
                        self.line(&format!(
                            "                    {},",
                            to_any_expr(&format!("out{k}"), ty)
                        ));
                    }
                    self.line("                ]))");
                }
            }
            self.line("            }");
        }
        self.line("            _ => Err(OrbError::BadOperation(format!(");
        self.line(&format!("                \"{{op}} is not a QoS operation of {name}\""));
        self.line("            ))),");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");
    }

    fn interface_def(&mut self, i: &InterfaceDef) {
        let ops = sema::flattened_operations(self.spec, i);
        let name = &i.name;

        // -- application trait ------------------------------------------
        self.line(&format!("/// Application logic of QIDL interface `{name}` — implement this."));
        let supertraits = if i.inherits.is_empty() {
            "Send + Sync".to_string()
        } else {
            format!("{} + Send + Sync", i.inherits.join(" + "))
        };
        self.line(&format!("pub trait {name}: {supertraits} {{"));
        for op in &i.operations {
            self.trait_method(op);
        }
        for a in &i.attributes {
            self.line(&format!(
                "    fn {}(&self) -> Result<{}, OrbError>;",
                a.name,
                rust_type(&a.ty)
            ));
            if !a.readonly {
                self.line(&format!(
                    "    fn set_{}(&self, value: {}) -> Result<(), OrbError>;",
                    a.name,
                    rust_type(&a.ty)
                ));
            }
        }
        self.line("}");
        self.line("");

        // -- servant adapter (server skeleton, Fig. 2) -------------------
        self.line(&format!("/// Server skeleton for `{name}`: maps wire requests onto a typed"));
        self.line("/// implementation. Wrap in `weaver::WovenServant` to attach QoS.");
        self.line(&format!("pub struct {name}Servant<T: {name}> {{"));
        self.line("    inner: T,");
        self.line("}");
        self.line("");
        self.line(&format!("impl<T: {name}> {name}Servant<T> {{"));
        self.line("    /// Wrap a typed implementation.");
        self.line("    pub fn new(inner: T) -> Self {");
        self.line("        Self { inner }");
        self.line("    }");
        self.line("    /// Access the wrapped implementation.");
        self.line("    pub fn inner(&self) -> &T {");
        self.line("        &self.inner");
        self.line("    }");
        self.line("}");
        self.line("");
        self.line(&format!("impl<T: {name}> Servant for {name}Servant<T> {{"));
        self.line("    fn interface_id(&self) -> &str {");
        self.line(&format!("        \"{}\"", i.repository_id()));
        self.line("    }");
        self.line("    fn dispatch(&self, op: &str, args: &[Any]) -> Result<Any, OrbError> {");
        self.line("        match op {");
        for op in &ops {
            self.dispatch_arm(op);
        }
        for a in &i.attributes {
            self.line(&format!("            \"get_{}\" => {{", a.name));
            self.line(&format!(
                "                support::expect_arity(args, 0, \"get_{}\")?;",
                a.name
            ));
            self.line(&format!("                let value = self.inner.{}()?;", a.name));
            self.line(&format!("                Ok({})", to_any_expr("value", &a.ty)));
            self.line("            }");
            if !a.readonly {
                self.line(&format!("            \"set_{}\" => {{", a.name));
                self.line(&format!(
                    "                support::expect_arity(args, 1, \"set_{}\")?;",
                    a.name
                ));
                let conv = from_any_expr("&args[0]", &a.ty, &format!("set_{}", a.name));
                self.line(&format!("                self.inner.set_{}({conv})?;", a.name));
                self.line("                Ok(Any::Void)");
                self.line("            }");
            }
        }
        self.line("            _ => Err(OrbError::BadOperation(op.to_string())),");
        self.line("        }");
        self.line("    }");
        self.line("}");
        self.line("");

        // -- typed client stub -------------------------------------------
        self.line(&format!("/// Typed client stub for `{name}` with a runtime mediator delegate"));
        self.line("/// (the client half of the QIDL weaving).");
        self.line("#[derive(Debug, Clone)]");
        self.line(&format!("pub struct {name}Stub {{"));
        self.line("    stub: weaver::ClientStub,");
        self.line("}");
        self.line("");
        self.line(&format!("impl {name}Stub {{"));
        self.line("    /// A stub invoking `target` through `orb`.");
        self.line("    pub fn new(orb: Orb, target: Ior) -> Self {");
        self.line("        Self { stub: weaver::ClientStub::new(orb, target) }");
        self.line("    }");
        self.line("    /// The underlying dynamic stub (mediator installation etc.).");
        self.line("    pub fn stub(&self) -> &weaver::ClientStub {");
        self.line("        &self.stub");
        self.line("    }");
        for op in &ops {
            self.stub_method(op);
        }
        for a in &i.attributes {
            self.line(&format!("    /// Read attribute `{}`.", a.name));
            self.line(&format!(
                "    pub fn {}(&self) -> Result<{}, OrbError> {{",
                a.name,
                rust_type(&a.ty)
            ));
            self.line(&format!("        let reply = self.stub.invoke(\"get_{}\", &[])?;", a.name));
            let conv = from_any_expr("&reply", &a.ty, &format!("get_{}", a.name));
            self.line(&format!("        Ok({conv})"));
            self.line("    }");
            if !a.readonly {
                self.line(&format!("    /// Write attribute `{}`.", a.name));
                self.line(&format!(
                    "    pub fn set_{}(&self, value: {}) -> Result<(), OrbError> {{",
                    a.name,
                    rust_type(&a.ty)
                ));
                let arg = to_any_expr("value", &a.ty);
                self.line(&format!("        self.stub.invoke(\"set_{}\", &[{arg}])?;", a.name));
                self.line("        Ok(())");
                self.line("    }");
            }
        }
        self.line("}");
        self.line("");
    }

    fn trait_method(&mut self, op: &Operation) {
        let mut sig = format!("    fn {}(&self", op.name);
        for p in inputs(op) {
            let _ = write!(sig, ", {}: {}", p.name, rust_type(&p.ty));
        }
        let _ = write!(sig, ") -> Result<{}, OrbError>;", output_type(op));
        self.line(&sig);
    }

    fn dispatch_arm(&mut self, op: &Operation) {
        let ins = inputs(op);
        let outs = outputs(op);
        self.line(&format!("            \"{}\" => {{", op.name));
        self.line(&format!(
            "                support::expect_arity(args, {}, \"{}\")?;",
            ins.len(),
            op.name
        ));
        for (idx, p) in ins.iter().enumerate() {
            let conv =
                from_any_expr(&format!("&args[{idx}]"), &p.ty, &format!("{}.{}", op.name, p.name));
            self.line(&format!("                let {} = {conv};", p.name));
        }
        let call_args: Vec<&str> = ins.iter().map(|p| p.name.as_str()).collect();
        let call = format!("self.inner.{}({})", op.name, call_args.join(", "));
        match outs.len() {
            0 => {
                self.line(&format!("                {call}?;"));
                self.line("                Ok(Any::Void)");
            }
            1 => {
                self.line(&format!("                let out = {call}?;"));
                self.line(&format!("                Ok({})", to_any_expr("out", &outs[0].1)));
            }
            n => {
                let names: Vec<String> = (0..n).map(|k| format!("out{k}")).collect();
                self.line(&format!("                let ({}) = {call}?;", names.join(", ")));
                self.line("                Ok(Any::Sequence(vec![");
                for (k, (_, ty)) in outs.iter().enumerate() {
                    self.line(&format!(
                        "                    {},",
                        to_any_expr(&format!("out{k}"), ty)
                    ));
                }
                self.line("                ]))");
            }
        }
        self.line("            }");
    }

    fn stub_method(&mut self, op: &Operation) {
        let ins = inputs(op);
        let outs = outputs(op);
        self.line(&format!("    /// Invoke `{}` through the mediator chain.", op.name));
        let mut sig = format!("    pub fn {}(&self", op.name);
        for p in &ins {
            let _ = write!(sig, ", {}: {}", p.name, rust_type(&p.ty));
        }
        let _ = write!(sig, ") -> Result<{}, OrbError> {{", output_type(op));
        self.line(&sig);
        let arg_exprs: Vec<String> = ins.iter().map(|p| to_any_expr(&p.name, &p.ty)).collect();
        if op.oneway {
            self.line(&format!(
                "        self.stub.orb().invoke_oneway(self.stub.target(), \"{}\", &[{}], None)",
                op.name,
                arg_exprs.join(", ")
            ));
            self.line("    }");
            return;
        }
        self.line(&format!(
            "        let reply = self.stub.invoke(\"{}\", &[{}])?;",
            op.name,
            arg_exprs.join(", ")
        ));
        match outs.len() {
            0 => {
                self.line("        let _ = reply;");
                self.line("        Ok(())");
            }
            1 => {
                let conv = from_any_expr("&reply", &outs[0].1, &op.name);
                self.line(&format!("        Ok({conv})"));
            }
            n => {
                self.line(&format!(
                    "        let items = support::expect_seq(&reply, \"{}\")?;",
                    op.name
                ));
                self.line(&format!("        support::expect_arity(items, {n}, \"{}\")?;", op.name));
                let convs: Vec<String> = outs
                    .iter()
                    .enumerate()
                    .map(|(k, (_, ty))| from_any_expr(&format!("&items[{k}]"), ty, &op.name))
                    .collect();
                self.line(&format!("        Ok(({}))", convs.join(", ")));
            }
        }
        self.line("    }");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    const SRC: &str = r#"
        exception FeedDown {
            string venue;
            long long since;
        };
        struct Quote {
            string symbol;
            double price;
            sequence<octet> payload;
            sequence<double> history;
        };
        qos Compression category performance {
            param long level = 6;
            param boolean adaptive = TRUE;
            param string codec = "lz";
            param double ratio_target = 0.5;
            management { void set_level(in long level); long get_level(); };
            peer { void hello(in string peer_name); };
        };
        interface Feed {
            Quote latest(in string symbol) raises (FeedDown);
        };
        interface Ticker : Feed with qos Compression {
            sequence<Quote> history(in string symbol, in unsigned long n);
            void multi(in string a, inout long b, out double c);
            oneway void nudge(in string who);
            readonly attribute string venue;
            attribute long depth;
        };
    "#;

    fn generated() -> String {
        generate(&compile(SRC).unwrap())
    }

    #[test]
    fn emits_struct_with_conversions() {
        let g = generated();
        assert!(g.contains("pub struct Quote {"));
        assert!(g.contains("pub symbol: String,"));
        assert!(g.contains("pub payload: Vec<u8>,"));
        assert!(g.contains("pub history: Vec<f64>,"));
        assert!(g.contains("pub fn to_any(&self) -> Any"));
        assert!(g.contains("pub fn from_any(v: &Any) -> Result<Self, OrbError>"));
    }

    #[test]
    fn emits_exception_type_with_helpers() {
        let g = generated();
        assert!(g.contains("pub struct FeedDown {"));
        assert!(g.contains("pub fn to_orb_error(&self) -> OrbError"));
        assert!(g.contains("pub fn matches(err: &OrbError) -> bool"));
        assert!(g.contains("s.starts_with(\"FeedDown(\")"));
    }

    #[test]
    fn emits_qos_params_with_defaults() {
        let g = generated();
        assert!(g.contains("pub struct CompressionParams {"));
        assert!(g.contains("level: 6,"));
        assert!(g.contains("adaptive: true,"));
        assert!(g.contains("codec: \"lz\".to_string(),"));
        assert!(g.contains("ratio_target: 0.5f64,"));
        assert!(g.contains("pub fn to_pairs(&self) -> Vec<(String, Any)>"));
    }

    #[test]
    fn emits_typed_qos_skeleton() {
        let g = generated();
        assert!(g.contains("pub trait CompressionOps: Send + Sync {"));
        assert!(g.contains(
            "fn set_level(&self, server: &dyn Servant, level: i32) -> Result<(), OrbError>;"
        ));
        assert!(g.contains("fn get_level(&self, server: &dyn Servant) -> Result<i32, OrbError>;"));
        assert!(g.contains("pub struct CompressionQosSkeleton<T: CompressionOps>"));
        assert!(g.contains(
            "impl<T: CompressionOps> weaver::QosImplementation for CompressionQosSkeleton<T>"
        ));
        assert!(g.contains("\"set_level\" => {"));
        // prolog/epilog hooks with defaults are part of the trait.
        assert!(g.contains("fn prolog(&self, op: &str, args: &[Any]) -> Result<(), OrbError> {"));
    }

    #[test]
    fn emits_qos_op_constants() {
        let g = generated();
        assert!(g.contains("pub mod compression_ops {"));
        assert!(g.contains("pub const SET_LEVEL: &str = \"set_level\";"));
        assert!(g.contains("pub const HELLO: &str = \"hello\";"));
    }

    #[test]
    fn emits_application_trait_with_inheritance() {
        let g = generated();
        assert!(g.contains("pub trait Feed: Send + Sync {"));
        assert!(g.contains("pub trait Ticker: Feed + Send + Sync {"));
        assert!(g.contains("fn latest(&self, symbol: String) -> Result<Quote, OrbError>;"));
        // multi: ret void, b inout, c out => outputs (i32, f64)
        assert!(
            g.contains("fn multi(&self, a: String, b: i64) -> Result<(i64, f64), OrbError>;")
                || g.contains(
                    "fn multi(&self, a: String, b: i32) -> Result<(i32, f64), OrbError>;"
                )
        );
    }

    #[test]
    fn servant_dispatch_includes_inherited_and_attributes() {
        let g = generated();
        assert!(g.contains("pub struct TickerServant<T: Ticker>"));
        assert!(g.contains("\"IDL:Ticker:1.0\""));
        assert!(g.contains("\"latest\" =>")); // inherited from Feed
        assert!(g.contains("\"history\" =>"));
        assert!(g.contains("\"get_venue\" =>"));
        assert!(g.contains("\"get_depth\" =>"));
        assert!(g.contains("\"set_depth\" =>"));
        // readonly attribute has no setter
        assert!(!g.contains("\"set_venue\""));
        assert!(g.contains("Err(OrbError::BadOperation(op.to_string()))"));
    }

    #[test]
    fn stub_has_typed_methods_and_oneway() {
        let g = generated();
        assert!(g.contains("pub struct TickerStub {"));
        assert!(g.contains("pub fn latest(&self, symbol: String) -> Result<Quote, OrbError>"));
        assert!(g.contains("invoke_oneway(self.stub.target(), \"nudge\""));
        assert!(g.contains("pub fn venue(&self) -> Result<String, OrbError>"));
        assert!(g.contains("pub fn set_depth(&self, value: i32) -> Result<(), OrbError>"));
    }

    #[test]
    fn generated_code_has_no_todo_markers() {
        let g = generated();
        assert!(!g.contains("todo!"));
        assert!(!g.contains("unimplemented!"));
    }

    #[test]
    fn snake_case_helper() {
        assert_eq!(snake("Compression"), "compression");
        assert_eq!(snake("LoadBalancing"), "load_balancing");
        assert_eq!(snake("already_snake"), "already_snake");
    }

    #[test]
    fn empty_spec_generates_only_header() {
        let g = generate(&compile("").unwrap());
        assert!(g.contains("Generated by the MAQS QIDL compiler"));
        assert!(g.contains("pub mod support {"));
        assert!(!g.contains("pub trait"));
    }
}
