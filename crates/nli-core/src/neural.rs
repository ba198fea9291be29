//! The machine-learning-based interpreter: a sketch-based slot-filling
//! model of the SQLNet/TypeSQL class, trained on (question, SQL)
//! pairs.
//!
//! Faithful to the family's architecture and — importantly for the
//! reproduction — to its *limitations* as the survey states them
//! (§4.2): "these systems still have limited capability of handling
//! complex queries involving multiple tables with aggregations, and
//! nested queries. In addition, they require large amounts of training
//! data."
//!
//! The sketch is WikiSQL's: `SELECT agg?(col) FROM t WHERE (col op
//! value)*` — single table, ≤2 conjunctive conditions, no GROUP BY,
//! no joins, no nesting. Training examples outside the sketch are
//! skipped, exactly as WikiSQL-regime models cannot consume Spider's
//! harder queries. Components:
//!
//! * a table scorer (bilinear) choosing the focus table,
//! * an aggregate classifier (MLP, 6 classes),
//! * a select-shape classifier (`*` vs column) and a select-column
//!   scorer (bilinear column attention),
//! * a where-count classifier (0/1/2) with per-slot column scorer and
//!   operator classifier,
//! * TypeSQL-style value grounding: condition values are pointed at
//!   from question tokens, typed against the column (numbers for
//!   measures, indexed data values for text columns).
//!
//! Question and column features are hashed bag-of-words over stemmed
//! tokens — no pretrained vectors exist offline, and the paraphrase
//! robustness the survey attributes to this family emerges from
//! seeing lexical variation *in the training data*, which the
//! benchmark generator supplies.

use nlidb_ml::{BilinearScorer, Mlp, MlpConfig};
use nlidb_nlp::{is_stopword, porter_stem, tokenize, Token, TokenKind};
use nlidb_sqlir::ast::{AggFunc, BinOp, ColumnRef, Expr, Literal, Query, SelectItem, TableSource};

use crate::interpretation::{Interpretation, Interpreter, InterpreterKind};
use crate::linking::PreparedQuestion;
use crate::pipeline::SchemaContext;

/// Question feature dimensionality (hashed bag-of-words).
const QDIM: usize = 192;
/// Column feature dimensionality.
const CDIM: usize = 48;
/// Maximum WHERE conditions in the sketch.
const MAX_CONDS: usize = 2;

/// One supervised example.
#[derive(Debug, Clone)]
pub struct TrainingExample {
    /// The natural-language question.
    pub question: String,
    /// The gold SQL.
    pub sql: Query,
}

fn fnv(word: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in word.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Hashed, L2-normalized bag of stemmed content words.
fn hash_bow(words: impl Iterator<Item = String>, dim: usize) -> Vec<f64> {
    let mut v = vec![0.0; dim];
    let mut any = false;
    for w in words {
        let h = fnv(&w) as usize % dim;
        // Sign hashing reduces collisions' bias.
        let sign = if (fnv(&w) >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        v[h] += sign;
        any = true;
    }
    if any {
        let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
        v.iter_mut().for_each(|x| *x /= norm);
    }
    v
}

fn question_features(tokens: &[Token]) -> Vec<f64> {
    let words = tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Word)
        .map(|t| porter_stem(&t.norm));
    // Unigrams + adjacent bigrams.
    let unis: Vec<String> = words.collect();
    let bis: Vec<String> = unis
        .windows(2)
        .map(|w| format!("{}_{}", w[0], w[1]))
        .collect();
    hash_bow(unis.into_iter().chain(bis), QDIM)
}

fn column_features(table: &str, column_label: &str) -> Vec<f64> {
    let words = column_label
        .split_whitespace()
        .map(|w| porter_stem(&w.to_lowercase()))
        .chain(std::iter::once(porter_stem(&table.to_lowercase())));
    hash_bow(words, CDIM)
}

fn table_features(table: &str, columns: &[String]) -> Vec<f64> {
    let words = std::iter::once(table.to_lowercase())
        .chain(columns.iter().map(|c| c.to_lowercase()))
        .flat_map(|s| s.split([' ', '_']).map(porter_stem).collect::<Vec<_>>());
    hash_bow(words, CDIM)
}

/// Aggregate classes: index ↔ function.
const AGG_CLASSES: [Option<AggFunc>; 6] = [
    None,
    Some(AggFunc::Count),
    Some(AggFunc::Sum),
    Some(AggFunc::Avg),
    Some(AggFunc::Min),
    Some(AggFunc::Max),
];

/// Operator classes for condition slots.
const OP_CLASSES: [BinOp; 5] = [BinOp::Eq, BinOp::Gt, BinOp::Lt, BinOp::GtEq, BinOp::LtEq];

/// A gold sketch extracted from a single-table query.
#[derive(Debug, Clone, PartialEq)]
struct Sketch {
    table: String,
    agg: usize,                           // index into AGG_CLASSES
    sel_col: Option<String>,              // None = `*` or COUNT(*)
    conds: Vec<(String, usize, Literal)>, // (column, op class, value)
}

/// Extract the WikiSQL-style sketch, or `None` when the query exceeds
/// the family's reach (joins, nesting, grouping, ordering).
fn extract_sketch(sql: &Query) -> Option<Sketch> {
    if !sql.joins.is_empty()
        || sql.has_subquery()
        || !sql.group_by.is_empty()
        || sql.having.is_some()
        || !sql.order_by.is_empty()
        || sql.distinct
        || sql.select.len() != 1
    {
        return None;
    }
    let Some(TableSource::Table { name, .. }) = &sql.from else {
        return None;
    };
    let (agg, sel_col) = match &sql.select[0] {
        SelectItem::Wildcard => (0usize, None),
        SelectItem::Expr { expr, .. } => match expr {
            Expr::Column(c) => (0usize, Some(c.column.clone())),
            Expr::Agg {
                func,
                arg,
                distinct: false,
            } => {
                let idx = AGG_CLASSES
                    .iter()
                    .position(|a| *a == Some(*func))
                    .unwrap_or(0);
                match arg {
                    Some(a) => match a.as_ref() {
                        Expr::Column(c) => (idx, Some(c.column.clone())),
                        _ => return None,
                    },
                    None => (idx, None),
                }
            }
            _ => return None,
        },
    };
    let mut conds = Vec::new();
    if let Some(w) = &sql.where_clause {
        if !collect_conjuncts(w, &mut conds) {
            return None;
        }
    }
    if conds.len() > MAX_CONDS {
        return None;
    }
    Some(Sketch {
        table: name.clone(),
        agg,
        sel_col,
        conds,
    })
}

fn collect_conjuncts(e: &Expr, out: &mut Vec<(String, usize, Literal)>) -> bool {
    match e {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => collect_conjuncts(left, out) && collect_conjuncts(right, out),
        Expr::Binary { left, op, right } => {
            let Some(op_idx) = OP_CLASSES.iter().position(|o| o == op) else {
                return false;
            };
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(l)) => {
                    out.push((c.column.clone(), op_idx, l.clone()));
                    true
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// The trained model.
#[derive(Clone)]
struct Model {
    table_scorer: BilinearScorer,
    agg: Mlp,
    sel_shape: Mlp, // 0 = `*`, 1 = column
    sel_col: BilinearScorer,
    where_count: Mlp,
    cond_col: BilinearScorer,
    cond_op: Mlp, // input = [qfeat, colfeat]
    /// Tables seen in training (name, column labels).
    tables: Vec<(String, Vec<String>)>,
}

/// SQLNet-class interpreter. Untrained instances produce no
/// interpretations (they have no model to fill the sketch with).
#[derive(Clone)]
pub struct NeuralInterpreter {
    model: Option<Model>,
}

impl NeuralInterpreter {
    /// An untrained model: interprets nothing.
    pub fn untrained() -> NeuralInterpreter {
        NeuralInterpreter { model: None }
    }

    /// Is a model loaded?
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Train on (question, SQL) pairs against a schema context. Pairs
    /// whose SQL exceeds the sketch (joins, nesting, grouping) are
    /// skipped — the family's documented ceiling. Returns an
    /// untrained interpreter if nothing survives.
    pub fn train(examples: &[TrainingExample], ctx: &SchemaContext, seed: u64) -> Self {
        let sketches: Vec<(String, Sketch)> = examples
            .iter()
            .filter_map(|ex| extract_sketch(&ex.sql).map(|s| (ex.question.clone(), s)))
            .collect();
        if sketches.is_empty() {
            return NeuralInterpreter::untrained();
        }

        // Schema feature tables come from the ontology (cross-domain
        // transfer: features depend on names, not table identity).
        let tables: Vec<(String, Vec<String>)> = ctx
            .ontology
            .concepts
            .iter()
            .map(|c| {
                let cols = ctx
                    .ontology
                    .properties_of(&c.label)
                    .iter()
                    .map(|p| p.column.clone())
                    .collect();
                (c.table.clone(), cols)
            })
            .collect();

        let cfg_small = MlpConfig {
            hidden: 32,
            epochs: 80,
            lr: 0.08,
            seed,
            l2: 1e-4,
        };
        let mut model = Model {
            table_scorer: BilinearScorer::new(QDIM, CDIM, seed ^ 0xA),
            agg: Mlp::new(QDIM, AGG_CLASSES.len(), &cfg_small),
            sel_shape: Mlp::new(QDIM, 2, &cfg_small),
            sel_col: BilinearScorer::new(QDIM, CDIM, seed ^ 0xB),
            where_count: Mlp::new(QDIM, MAX_CONDS + 1, &cfg_small),
            cond_col: BilinearScorer::new(QDIM, CDIM, seed ^ 0xC),
            cond_op: Mlp::new(QDIM + CDIM, OP_CLASSES.len(), &cfg_small),
            tables,
        };

        // Assemble training sets.
        let mut qfeats: Vec<Vec<f64>> = Vec::with_capacity(sketches.len());
        for (q, _) in &sketches {
            qfeats.push(question_features(&tokenize(q)));
        }
        let agg_labels: Vec<usize> = sketches.iter().map(|(_, s)| s.agg).collect();
        let shape_labels: Vec<usize> = sketches
            .iter()
            .map(|(_, s)| usize::from(s.sel_col.is_some() && s.agg == 0))
            .collect();
        let wc_labels: Vec<usize> = sketches
            .iter()
            .map(|(_, s)| s.conds.len().min(MAX_CONDS))
            .collect();

        model.agg.train(&qfeats, &agg_labels, &cfg_small);
        model.sel_shape.train(&qfeats, &shape_labels, &cfg_small);
        model.where_count.train(&qfeats, &wc_labels, &cfg_small);

        // Scorer triples.
        let mut table_triples = Vec::new();
        let mut selcol_triples = Vec::new();
        let mut condcol_triples = Vec::new();
        let mut op_x = Vec::new();
        let mut op_y = Vec::new();
        for ((_, s), qf) in sketches.iter().zip(&qfeats) {
            for (tname, tcols) in &model.tables {
                table_triples.push((qf.clone(), table_features(tname, tcols), tname == &s.table));
            }
            let Some((_, cols)) = model.tables.iter().find(|(t, _)| t == &s.table) else {
                continue;
            };
            if let Some(sel) = &s.sel_col {
                for c in cols {
                    selcol_triples.push((qf.clone(), column_features(&s.table, c), c == sel));
                }
            }
            for (cc, op_idx, _) in &s.conds {
                for c in cols {
                    condcol_triples.push((qf.clone(), column_features(&s.table, c), c == cc));
                }
                let mut x = qf.clone();
                x.extend(column_features(&s.table, cc));
                op_x.push(x);
                op_y.push(*op_idx);
            }
        }
        model.table_scorer.train(&table_triples, 25, 0.12);
        model.sel_col.train(&selcol_triples, 25, 0.12);
        model.cond_col.train(&condcol_triples, 25, 0.12);
        let op_cfg = MlpConfig {
            hidden: 24,
            epochs: 80,
            lr: 0.08,
            seed: seed ^ 0xD,
            l2: 1e-4,
        };
        let mut op_mlp = Mlp::new(QDIM + CDIM, OP_CLASSES.len(), &op_cfg);
        op_mlp.train(&op_x, &op_y, &op_cfg);
        model.cond_op = op_mlp;

        NeuralInterpreter { model: Some(model) }
    }
}

/// Ground a condition value from the question for a given column.
fn ground_value(
    question_tokens: &[Token],
    table: &str,
    column: &str,
    numeric: bool,
    used_numbers: &mut Vec<usize>,
    ctx: &SchemaContext,
) -> Option<Literal> {
    if numeric {
        for (i, t) in question_tokens.iter().enumerate() {
            if t.kind == TokenKind::Number && !used_numbers.contains(&i) {
                // Skip numbers that look like LIMIT counts after "top".
                let prev = i
                    .checked_sub(1)
                    .map(|j| question_tokens[j].norm.as_str())
                    .unwrap_or("");
                if prev == "top" || prev == "bottom" {
                    continue;
                }
                used_numbers.push(i);
                let v = t.as_number()?;
                return Some(if v.fract() == 0.0 {
                    Literal::Int(v as i64)
                } else {
                    Literal::Float(v)
                });
            }
        }
        return None;
    }
    // Text column: quoted tokens first, then indexed span lookup.
    for t in question_tokens {
        if t.kind == TokenKind::Quoted {
            if let Some(hit) = ctx
                .indices
                .values
                .lookup(&t.norm)
                .into_iter()
                .find(|h| h.table == table && h.column == column)
            {
                return Some(Literal::Str(hit.value));
            }
            return Some(Literal::Str(t.norm.clone()));
        }
    }
    // Try 1-2 token spans against the value index, scoped to column.
    let words: Vec<&Token> = question_tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Word && !is_stopword(&t.norm))
        .collect();
    for len in (1..=2usize).rev() {
        for win in words.windows(len) {
            let text = win
                .iter()
                .map(|t| t.norm.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            if let Some(hit) = ctx
                .indices
                .values
                .lookup(&text)
                .into_iter()
                .find(|h| h.table == table && h.column == column && h.score >= 0.85)
            {
                return Some(Literal::Str(hit.value));
            }
        }
    }
    None
}

/// The monolithic contrast case for the sketch architecture — the
/// ablation DESIGN.md calls out (SQLNet's argument against Seq2SQL's
/// sequence decoding, reduced to its essence): memorize whole
/// (question, SQL) pairs and answer with the nearest neighbor's SQL
/// verbatim. No slot structure means no recombination: unseen
/// value/column combinations cannot be produced, only replayed.
pub struct NearestNeighborBaseline {
    memory: Vec<(Vec<f64>, Query)>,
}

impl NearestNeighborBaseline {
    /// Memorize the training pairs (all of them — a monolithic model
    /// has no sketch to be limited by).
    pub fn train(examples: &[TrainingExample]) -> NearestNeighborBaseline {
        NearestNeighborBaseline {
            memory: examples
                .iter()
                .map(|ex| (question_features(&tokenize(&ex.question)), ex.sql.clone()))
                .collect(),
        }
    }

    /// Number of memorized pairs.
    pub fn len(&self) -> usize {
        self.memory.len()
    }

    /// Whether the memory is empty.
    pub fn is_empty(&self) -> bool {
        self.memory.is_empty()
    }

    /// Answer with the nearest training question's SQL (cosine over
    /// the same hashed features the sketch model uses). Returns the
    /// similarity as the confidence.
    pub fn predict(&self, question: &str) -> Option<(Query, f64)> {
        let qf = question_features(&tokenize(question));
        let mut best: Option<(&Query, f64)> = None;
        for (f, sql) in &self.memory {
            let sim: f64 = qf.iter().zip(f).map(|(a, b)| a * b).sum();
            if best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((sql, sim));
            }
        }
        best.map(|(sql, sim)| (sql.clone(), sim))
    }
}

impl Interpreter for NeuralInterpreter {
    fn kind(&self) -> InterpreterKind {
        InterpreterKind::Neural
    }

    fn interpret(&self, question: &PreparedQuestion, ctx: &SchemaContext) -> Vec<Interpretation> {
        let Some(model) = &self.model else {
            return Vec::new();
        };
        // Schema features come from the *evaluation* context, so a
        // trained model can be pointed at a new database (the
        // cross-domain transfer setting of E3); features are
        // name-derived, so transfer succeeds exactly to the extent the
        // new schema's vocabulary resembles the training schema's.
        let tables: Vec<(String, Vec<String>)> = ctx
            .ontology
            .concepts
            .iter()
            .map(|c| {
                let cols = ctx
                    .ontology
                    .properties_of(&c.label)
                    .iter()
                    .map(|p| p.column.clone())
                    .collect();
                (c.table.clone(), cols)
            })
            .collect();
        if tables.is_empty() {
            return Vec::new();
        }
        let tokens = &question.tokens;
        let qf = question_features(tokens);

        // 1. Table.
        let tfeats: Vec<Vec<f64>> = tables
            .iter()
            .map(|(t, cols)| table_features(t, cols))
            .collect();
        let t_idx = model
            .table_scorer
            .best(&qf, tfeats.iter().map(|f| f.as_slice()));
        // Table-choice certainty feeds the overall confidence: a
        // question whose vocabulary matches no table well should not
        // produce a confident sketch.
        let t_scores: Vec<f64> = tfeats
            .iter()
            .map(|f| model.table_scorer.score(&qf, f))
            .collect();
        let t_proba = nlidb_ml::matrix::softmax(&t_scores);
        let (table, cols) = &tables[t_idx];
        let colfeats: Vec<Vec<f64>> = cols.iter().map(|c| column_features(table, c)).collect();
        let numeric_col = |c: &str| -> bool {
            ctx.ontology
                .concept_for_table(table)
                .and_then(|con| {
                    ctx.ontology
                        .properties_of(&con.label)
                        .into_iter()
                        .find(|p| p.column == c)
                        .map(|p| {
                            matches!(
                                p.role,
                                nlidb_ontology::PropertyRole::Measure
                                    | nlidb_ontology::PropertyRole::Identifier
                            )
                        })
                })
                .unwrap_or(false)
        };

        // 2. Aggregate + select.
        let agg_proba = model.agg.predict_proba(&qf);
        let agg_idx = nlidb_ml::matrix::argmax(&agg_proba);
        let shape_proba = model.sel_shape.predict_proba(&qf);
        let table_certainty = if t_proba.len() > 1 {
            // Rescale: uniform → 0, one-hot → 1.
            let uniform = 1.0 / t_proba.len() as f64;
            ((t_proba[t_idx] - uniform) / (1.0 - uniform)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let mut confidence = agg_proba[agg_idx] * (0.4 + 0.6 * table_certainty);

        let select_item = match AGG_CLASSES[agg_idx] {
            None => {
                if shape_proba[1] > shape_proba[0] && !cols.is_empty() {
                    let ci = model
                        .sel_col
                        .best(&qf, colfeats.iter().map(|f| f.as_slice()));
                    confidence *= shape_proba[1];
                    SelectItem::expr(Expr::Column(ColumnRef::bare(cols[ci].clone())))
                } else {
                    confidence *= shape_proba[0];
                    SelectItem::Wildcard
                }
            }
            Some(AggFunc::Count) => SelectItem::expr(Expr::count_star()),
            Some(func) => {
                // Type-aware column choice (TypeSQL-style): SUM and AVG
                // score only numeric columns; MIN and MAX take any.
                let candidates: Vec<usize> = (0..cols.len())
                    .filter(|&i| {
                        !matches!(func, AggFunc::Sum | AggFunc::Avg) || numeric_col(&cols[i])
                    })
                    .collect();
                if candidates.is_empty() {
                    return Vec::new();
                }
                let k = model
                    .sel_col
                    .best(&qf, candidates.iter().map(|&i| colfeats[i].as_slice()));
                SelectItem::expr(Expr::agg(func, Expr::col(cols[candidates[k]].clone())))
            }
        };

        // 3. Conditions.
        let wc_proba = model.where_count.predict_proba(&qf);
        let wc = nlidb_ml::matrix::argmax(&wc_proba);
        confidence *= wc_proba[wc];
        let mut where_clause: Option<Expr> = None;
        let mut used_cols: Vec<usize> = Vec::new();
        let mut used_numbers: Vec<usize> = Vec::new();
        for _slot in 0..wc {
            // Best unused column for a condition.
            let mut ranked: Vec<(usize, f64)> = colfeats
                .iter()
                .enumerate()
                .filter(|(i, _)| !used_cols.contains(i))
                .map(|(i, f)| (i, model.cond_col.score(&qf, f)))
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let Some(&(ci, _)) = ranked.first() else {
                break;
            };
            used_cols.push(ci);
            let mut op_in = qf.clone();
            op_in.extend(colfeats[ci].iter());
            let op_proba = model.cond_op.predict_proba(&op_in);
            let op = OP_CLASSES[nlidb_ml::matrix::argmax(&op_proba)];
            let is_num = numeric_col(&cols[ci]);
            let Some(value) =
                ground_value(tokens, table, &cols[ci], is_num, &mut used_numbers, ctx)
            else {
                continue;
            };
            let pred = Expr::col(cols[ci].clone()).binary(op, Expr::Literal(value));
            where_clause = Some(match where_clause.take() {
                Some(w) => w.and(pred),
                None => pred,
            });
        }

        let sql = Query {
            select: vec![select_item],
            from: Some(TableSource::table(table.clone())),
            where_clause,
            ..Query::default()
        };
        vec![Interpretation::new(
            sql,
            (0.35 + 0.65 * confidence).min(1.0),
            InterpreterKind::Neural,
        )
        .explain(format!(
            "sketch: table={table}, agg class {agg_idx}, {wc} conditions"
        ))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlidb_engine::{ColumnType, Database, TableSchema, Value};
    use nlidb_sqlir::parse_query;

    fn ctx() -> SchemaContext {
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("products")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("category", ColumnType::Text)
                .column("price", ColumnType::Float)
                .primary_key("id"),
        )
        .unwrap();
        for (id, n, c, p) in [
            (1, "Anvil", "tools", 10.0),
            (2, "Rope", "tools", 5.0),
            (3, "Piano", "music", 500.0),
            (4, "Flute", "music", 90.0),
        ] {
            db.insert(
                "products",
                vec![
                    Value::Int(id),
                    Value::from(n),
                    Value::from(c),
                    Value::Float(p),
                ],
            )
            .unwrap();
        }
        SchemaContext::build(&db)
    }

    fn examples() -> Vec<TrainingExample> {
        let mk = |q: &str, sql: &str| TrainingExample {
            question: q.to_string(),
            sql: parse_query(sql).unwrap(),
        };
        let mut out = Vec::new();
        // Repeat template families with lexical variety.
        for (q, s) in [
            ("show all products", "SELECT * FROM products"),
            ("list every product", "SELECT * FROM products"),
            ("display products", "SELECT * FROM products"),
            (
                "show products in tools",
                "SELECT * FROM products WHERE category = 'tools'",
            ),
            (
                "list products in music",
                "SELECT * FROM products WHERE category = 'music'",
            ),
            (
                "products with price greater than 50",
                "SELECT * FROM products WHERE price > 50",
            ),
            (
                "products with price more than 100",
                "SELECT * FROM products WHERE price > 100",
            ),
            (
                "products with price less than 20",
                "SELECT * FROM products WHERE price < 20",
            ),
            (
                "products cheaper than 9",
                "SELECT * FROM products WHERE price < 9",
            ),
            (
                "how many products are there",
                "SELECT COUNT(*) FROM products",
            ),
            ("count the products", "SELECT COUNT(*) FROM products"),
            ("number of products", "SELECT COUNT(*) FROM products"),
            (
                "average price of products",
                "SELECT AVG(price) FROM products",
            ),
            ("mean price of products", "SELECT AVG(price) FROM products"),
            ("total price of products", "SELECT SUM(price) FROM products"),
            ("sum of product price", "SELECT SUM(price) FROM products"),
            (
                "maximum price of products",
                "SELECT MAX(price) FROM products",
            ),
            (
                "minimum price of products",
                "SELECT MIN(price) FROM products",
            ),
            ("names of products", "SELECT name FROM products"),
            ("show the product names", "SELECT name FROM products"),
            ("categories of products", "SELECT category FROM products"),
        ] {
            out.push(mk(q, s));
            out.push(mk(q, s)); // duplicate to densify the tiny set
        }
        out
    }

    #[test]
    fn sketch_extraction_bounds() {
        let ok = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 AND b > 2").unwrap();
        assert!(extract_sketch(&ok).is_some());
        let join = parse_query("SELECT a FROM t JOIN u ON t.id = u.tid").unwrap();
        assert!(extract_sketch(&join).is_none(), "joins exceed the sketch");
        let nested = parse_query("SELECT * FROM t WHERE id IN (SELECT x FROM u)").unwrap();
        assert!(
            extract_sketch(&nested).is_none(),
            "nesting exceeds the sketch"
        );
        let grouped = parse_query("SELECT a, COUNT(*) FROM t GROUP BY a").unwrap();
        assert!(
            extract_sketch(&grouped).is_none(),
            "grouping exceeds the sketch"
        );
        let three = parse_query("SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3").unwrap();
        assert!(
            extract_sketch(&three).is_none(),
            ">2 conditions exceed the sketch"
        );
    }

    #[test]
    fn untrained_interprets_nothing() {
        let ctx = ctx();
        assert!(NeuralInterpreter::untrained()
            .best("how many products", &ctx)
            .is_none());
        assert!(!NeuralInterpreter::untrained().is_trained());
    }

    #[test]
    fn trains_and_answers_in_domain() {
        let ctx = ctx();
        let n = NeuralInterpreter::train(&examples(), &ctx, 7);
        assert!(n.is_trained());
        let i = n.best("how many products are there", &ctx).unwrap();
        assert_eq!(i.sql.to_string(), "SELECT COUNT(*) FROM products");
        let i = n.best("average price of products", &ctx).unwrap();
        assert_eq!(i.sql.to_string(), "SELECT AVG(price) FROM products");
    }

    #[test]
    fn grounds_text_condition_values() {
        let ctx = ctx();
        let n = NeuralInterpreter::train(&examples(), &ctx, 7);
        let i = n.best("show products in tools", &ctx).unwrap();
        assert_eq!(
            i.sql.to_string(),
            "SELECT * FROM products WHERE category = 'tools'"
        );
    }

    #[test]
    fn ungrounded_quoted_literals_are_flagged_by_validation() {
        // Same data as ctx(), built locally so validation can
        // point-check the stored values.
        let mut db = Database::new("d");
        db.create_table(
            TableSchema::new("products")
                .column("id", ColumnType::Int)
                .column("name", ColumnType::Text)
                .column("category", ColumnType::Text)
                .column("price", ColumnType::Float)
                .primary_key("id"),
        )
        .unwrap();
        for (id, n, c, p) in [
            (1, "Anvil", "tools", 10.0),
            (2, "Rope", "tools", 5.0),
            (3, "Piano", "music", 500.0),
            (4, "Flute", "music", 90.0),
        ] {
            db.insert(
                "products",
                vec![
                    Value::Int(id),
                    Value::from(n),
                    Value::from(c),
                    Value::Float(p),
                ],
            )
            .unwrap();
        }
        let ctx = SchemaContext::build(&db);
        let n = NeuralInterpreter::train(&examples(), &ctx, 7);
        // A quoted value with no index hit is copied into the SQL
        // verbatim — the candidate *parses* but can only return an
        // empty answer. The validation layer catches exactly this.
        let q = PreparedQuestion::new("show products in 'gadgets'", &ctx);
        let set = crate::candidates::gather(&n, &q, &ctx, 5);
        assert!(!set.is_empty(), "sketch should still fire");
        let top = set.top().unwrap();
        assert!(
            top.sql_text().contains("'gadgets'"),
            "verbatim literal expected: {}",
            top.sql_text()
        );
        let r =
            crate::validate::validate_candidate(&db, &ctx.ontology, &top.interpretation.sql, None);
        assert!(
            r.iter().any(|x| x.label() == "ungrounded_value"),
            "validation must flag the ungrounded literal: {r:?}"
        );
    }

    #[test]
    fn grounds_numeric_condition_values() {
        let ctx = ctx();
        let n = NeuralInterpreter::train(&examples(), &ctx, 7);
        let i = n.best("products with price greater than 70", &ctx).unwrap();
        assert_eq!(i.sql.to_string(), "SELECT * FROM products WHERE price > 70");
    }

    #[test]
    fn robust_to_unseen_paraphrase_of_seen_words() {
        let ctx = ctx();
        let n = NeuralInterpreter::train(&examples(), &ctx, 7);
        // "count" and "products" both seen, but this exact phrasing not.
        let i = n.best("count of all the products", &ctx).unwrap();
        assert_eq!(i.sql.to_string(), "SELECT COUNT(*) FROM products");
    }

    #[test]
    fn training_skips_out_of_sketch_examples_entirely() {
        let ctx = ctx();
        let hard = vec![TrainingExample {
            question: "products without orders".into(),
            sql: parse_query("SELECT * FROM p WHERE id NOT IN (SELECT pid FROM o)").unwrap(),
        }];
        let n = NeuralInterpreter::train(&hard, &ctx, 7);
        assert!(!n.is_trained(), "nothing trainable inside the sketch");
    }

    #[test]
    fn nearest_neighbor_replays_but_cannot_recombine() {
        let ctx = ctx();
        let nn = NearestNeighborBaseline::train(&examples());
        assert!(!nn.is_empty());
        assert!(nn.len() > 20);
        // Exact repeat of a training question: perfect.
        let (sql, sim) = nn.predict("show products in tools").unwrap();
        assert_eq!(
            sql.to_string(),
            "SELECT * FROM products WHERE category = 'tools'"
        );
        assert!(sim > 0.99);
        // Unseen value with seen vocabulary: the sketch model grounds
        // the new value; the monolithic baseline can only replay an old
        // one and gets the literal wrong.
        let sketch = NeuralInterpreter::train(&examples(), &ctx, 7);
        let sketch_sql = sketch
            .best("products with price greater than 77", &ctx)
            .unwrap()
            .sql
            .to_string();
        assert_eq!(sketch_sql, "SELECT * FROM products WHERE price > 77");
        let (nn_sql, _) = nn.predict("products with price greater than 77").unwrap();
        assert_ne!(
            nn_sql.to_string(),
            "SELECT * FROM products WHERE price > 77",
            "a memorizer cannot produce an unseen literal"
        );
    }

    #[test]
    fn never_produces_joins_or_nesting() {
        let ctx = ctx();
        let n = NeuralInterpreter::train(&examples(), &ctx, 7);
        for q in [
            "total order amount by customer city",
            "products without orders",
            "customers with more than 5 orders",
        ] {
            for i in n.interpret(&PreparedQuestion::new(q, &ctx), &ctx) {
                assert!(i.sql.joins.is_empty());
                assert!(!i.sql.has_subquery());
                assert!(i.sql.group_by.is_empty());
            }
        }
    }
}
