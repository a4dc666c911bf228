//! Input sources and their combination.
//!
//! GNU Parallel composes input sources with `:::` (cartesian product) and
//! `:::+` (element-wise link to the previous source). The Darshan script in
//! paper §IV-B is exactly this:
//!
//! ```text
//! parallel -j36 python3 ./darshan_arch.py ::: {1..12} ::: {0..2}
//! ```
//!
//! which runs the 12 × 3 product. [`InputSet`] reproduces those semantics:
//! product sources multiply, linked sources zip onto the group they follow
//! (truncating to the shortest member, as `:::+` does).

use std::io::BufRead;

use crate::error::{Error, Result};

/// How a source combines with what came before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMode {
    /// `:::` — cartesian product with everything before.
    Product,
    /// `:::+` — zipped element-wise with the previous source.
    Linked,
}

/// One list of argument values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSource {
    pub values: Vec<String>,
    pub mode: LinkMode,
}

impl InputSource {
    /// A product (`:::`) source.
    pub fn product<I, S>(values: I) -> InputSource
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        InputSource {
            values: values.into_iter().map(Into::into).collect(),
            mode: LinkMode::Product,
        }
    }

    /// A linked (`:::+`) source.
    pub fn linked<I, S>(values: I) -> InputSource
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        InputSource {
            values: values.into_iter().map(Into::into).collect(),
            mode: LinkMode::Linked,
        }
    }

    /// A product source from the lines of a reader (like piping a file into
    /// `parallel`). Trailing newlines are stripped; other whitespace is
    /// preserved.
    pub fn from_lines<R: BufRead>(reader: R) -> Result<InputSource> {
        let mut values = Vec::new();
        for line in reader.lines() {
            values.push(line?);
        }
        Ok(InputSource::product(values))
    }

    /// `--colsep SEP`: read lines and split each on `sep` into columns;
    /// returns one source per column (the first a product source, the
    /// rest linked), so `{1}`, `{2}`, … address the columns. Rows are
    /// padded with empty strings to the widest row.
    pub fn columns_from_lines<R: BufRead>(reader: R, sep: &str) -> Result<Vec<InputSource>> {
        if sep.is_empty() {
            return Err(Error::Input("colsep must be non-empty".into()));
        }
        let mut rows: Vec<Vec<String>> = Vec::new();
        let mut width = 0;
        for line in reader.lines() {
            let row: Vec<String> = line?.split(sep).map(str::to_string).collect();
            width = width.max(row.len());
            rows.push(row);
        }
        let mut columns: Vec<Vec<String>> = vec![Vec::with_capacity(rows.len()); width];
        for row in &rows {
            for (c, col) in columns.iter_mut().enumerate() {
                col.push(row.get(c).cloned().unwrap_or_default());
            }
        }
        let mut sources = Vec::with_capacity(width);
        for (i, col) in columns.into_iter().enumerate() {
            sources.push(if i == 0 {
                InputSource::product(col)
            } else {
                InputSource::linked(col)
            });
        }
        Ok(sources)
    }
}

/// A group of linked sources: a base product source plus any number of
/// `:::+` sources zipped to it.
#[derive(Debug, Clone)]
struct Group {
    columns: Vec<Vec<String>>,
}

impl Group {
    /// Rows available = length of the shortest column (GNU `:::+`
    /// truncates to the shortest input source).
    fn len(&self) -> usize {
        self.columns.iter().map(Vec::len).min().unwrap_or(0)
    }

    fn row(&self, i: usize, out: &mut Vec<String>) {
        for col in &self.columns {
            out.push(col[i].clone());
        }
    }
}

/// The full input specification: an ordered list of groups whose rows are
/// combined by cartesian product.
#[derive(Debug, Clone, Default)]
pub struct InputSet {
    groups: Vec<Group>,
}

impl InputSet {
    /// An empty input set (yields no jobs).
    pub fn new() -> InputSet {
        InputSet::default()
    }

    /// Append a source. A [`LinkMode::Linked`] source with no preceding
    /// source is an error.
    pub fn push(&mut self, source: InputSource) -> Result<()> {
        match source.mode {
            LinkMode::Product => self.groups.push(Group {
                columns: vec![source.values],
            }),
            LinkMode::Linked => match self.groups.last_mut() {
                Some(group) => group.columns.push(source.values),
                None => {
                    return Err(Error::Input(
                        "linked source (:::+) requires a preceding source".into(),
                    ))
                }
            },
        }
        Ok(())
    }

    /// Number of argument *columns* each job receives (what `{n}` indexes).
    pub fn arity(&self) -> usize {
        self.groups.iter().map(|g| g.columns.len()).sum()
    }

    /// Total number of jobs this input set will generate.
    pub fn len(&self) -> usize {
        if self.groups.is_empty() {
            return 0;
        }
        self.groups.iter().map(Group::len).product()
    }

    /// True when no jobs would be generated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The argument tuples of [`InputSet::iter`], moving the values of a
    /// lone source into their rows instead of copying them.
    pub fn into_rows(mut self) -> Vec<Vec<String>> {
        match self.groups.as_mut_slice() {
            [group] if group.columns.len() == 1 => {
                let values = group.columns.pop().unwrap_or_default();
                values.into_iter().map(|value| vec![value]).collect()
            }
            _ => self.iter().collect(),
        }
    }

    /// Iterate over argument tuples in GNU order: the *last* source varies
    /// fastest (`::: a b ::: 1 2` gives `a 1`, `a 2`, `b 1`, `b 2`).
    pub fn iter(&self) -> ProductIter<'_> {
        ProductIter {
            set: self,
            idx: vec![0; self.groups.len()],
            done: self.is_empty(),
        }
    }
}

/// Lazy odometer over the cartesian product of groups.
pub struct ProductIter<'a> {
    set: &'a InputSet,
    idx: Vec<usize>,
    done: bool,
}

impl<'a> Iterator for ProductIter<'a> {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Vec<String>> {
        if self.done {
            return None;
        }
        let mut row = Vec::with_capacity(self.set.arity());
        for (group, &i) in self.set.groups.iter().zip(&self.idx) {
            group.row(i, &mut row);
        }
        // Advance the odometer, last group fastest.
        let mut pos = self.set.groups.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.idx[pos] += 1;
            if self.idx[pos] < self.set.groups[pos].len() {
                break;
            }
            self.idx[pos] = 0;
        }
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            // Upper bound only; exact remaining count is cheap but unneeded.
            (0, Some(self.set.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(sources: Vec<InputSource>) -> InputSet {
        let mut s = InputSet::new();
        for src in sources {
            s.push(src).unwrap();
        }
        s
    }

    fn rows(s: &InputSet) -> Vec<Vec<String>> {
        s.iter().collect()
    }

    #[test]
    fn single_source_yields_singleton_tuples() {
        let s = set(vec![InputSource::product(["a", "b", "c"])]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.arity(), 1);
        assert_eq!(rows(&s), vec![vec!["a"], vec!["b"], vec!["c"]]);
    }

    #[test]
    fn product_order_last_source_fastest() {
        let s = set(vec![
            InputSource::product(["a", "b"]),
            InputSource::product(["1", "2"]),
        ]);
        assert_eq!(
            rows(&s),
            vec![
                vec!["a", "1"],
                vec!["a", "2"],
                vec!["b", "1"],
                vec!["b", "2"],
            ]
        );
    }

    #[test]
    fn darshan_product_shape() {
        // parallel ::: {1..12} ::: {0..2} => 36 jobs (paper §IV-B, -j36).
        let months: Vec<String> = (1..=12).map(|m| m.to_string()).collect();
        let apps: Vec<String> = (0..=2).map(|a| a.to_string()).collect();
        let s = set(vec![
            InputSource::product(months),
            InputSource::product(apps),
        ]);
        assert_eq!(s.len(), 36);
        let all = rows(&s);
        assert_eq!(all[0], vec!["1", "0"]);
        assert_eq!(all[35], vec!["12", "2"]);
    }

    #[test]
    fn linked_sources_zip() {
        let s = set(vec![
            InputSource::product(["a", "b"]),
            InputSource::linked(["x", "y"]),
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.arity(), 2);
        assert_eq!(rows(&s), vec![vec!["a", "x"], vec!["b", "y"]]);
    }

    #[test]
    fn linked_truncates_to_shortest() {
        let s = set(vec![
            InputSource::product(["a", "b", "c"]),
            InputSource::linked(["x"]),
        ]);
        assert_eq!(s.len(), 1);
        assert_eq!(rows(&s), vec![vec!["a", "x"]]);
    }

    #[test]
    fn linked_then_product() {
        let s = set(vec![
            InputSource::product(["a", "b"]),
            InputSource::linked(["x", "y"]),
            InputSource::product(["1", "2"]),
        ]);
        assert_eq!(s.len(), 4);
        assert_eq!(
            rows(&s),
            vec![
                vec!["a", "x", "1"],
                vec!["a", "x", "2"],
                vec!["b", "y", "1"],
                vec!["b", "y", "2"],
            ]
        );
    }

    #[test]
    fn into_rows_matches_iter() {
        let sets = [
            vec![InputSource::product(["a", "b", "c"])],
            vec![
                InputSource::product(["a", "b"]),
                InputSource::linked(["x", "y"]),
            ],
            vec![
                InputSource::product(["a", "b"]),
                InputSource::product(["1", "2"]),
            ],
            vec![],
        ];
        for sources in sets {
            let s = set(sources);
            assert_eq!(s.clone().into_rows(), rows(&s));
        }
    }

    #[test]
    fn linked_without_base_is_error() {
        let mut s = InputSet::new();
        assert!(s.push(InputSource::linked(["x"])).is_err());
    }

    #[test]
    fn empty_source_kills_product() {
        let s = set(vec![
            InputSource::product(["a", "b"]),
            InputSource::product(Vec::<String>::new()),
        ]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
        assert_eq!(rows(&s).len(), 0);
    }

    #[test]
    fn empty_set_is_empty() {
        let s = InputSet::new();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn from_lines_reads_lines() {
        let src = InputSource::from_lines("one\ntwo\nthree\n".as_bytes()).unwrap();
        assert_eq!(src.values, vec!["one", "two", "three"]);
        assert_eq!(src.mode, LinkMode::Product);
    }

    #[test]
    fn colsep_splits_into_linked_columns() {
        let sources = InputSource::columns_from_lines("a,1\nb,2\nc,3\n".as_bytes(), ",").unwrap();
        assert_eq!(sources.len(), 2);
        let s = set(sources);
        assert_eq!(s.arity(), 2);
        assert_eq!(
            rows(&s),
            vec![vec!["a", "1"], vec!["b", "2"], vec!["c", "3"]]
        );
    }

    #[test]
    fn colsep_pads_ragged_rows() {
        let sources = InputSource::columns_from_lines("a,1,x\nb\n".as_bytes(), ",").unwrap();
        let s = set(sources);
        assert_eq!(rows(&s), vec![vec!["a", "1", "x"], vec!["b", "", ""]]);
    }

    #[test]
    fn colsep_single_column_is_plain_lines() {
        let sources = InputSource::columns_from_lines("a\nb\n".as_bytes(), ",").unwrap();
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].values, vec!["a", "b"]);
    }

    #[test]
    fn colsep_rejects_empty_separator() {
        assert!(InputSource::columns_from_lines("x".as_bytes(), "").is_err());
    }

    #[test]
    fn from_lines_preserves_inner_whitespace() {
        let src = InputSource::from_lines("  spaced value \n".as_bytes()).unwrap();
        assert_eq!(src.values, vec!["  spaced value "]);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn product_count_is_product_of_sizes(
                a in proptest::collection::vec("[a-z]{1,3}", 0..5),
                b in proptest::collection::vec("[0-9]{1,3}", 0..5),
                c in proptest::collection::vec("[A-Z]{1,3}", 0..5),
            ) {
                let expect = a.len() * b.len() * c.len();
                let s = set(vec![
                    InputSource::product(a),
                    InputSource::product(b),
                    InputSource::product(c),
                ]);
                prop_assert_eq!(s.len(), expect);
                prop_assert_eq!(s.iter().count(), expect);
            }

            #[test]
            fn linked_count_is_min(
                a in proptest::collection::vec("[a-z]{1,3}", 1..6),
                b in proptest::collection::vec("[0-9]{1,3}", 1..6),
            ) {
                let expect = a.len().min(b.len());
                let s = set(vec![InputSource::product(a), InputSource::linked(b)]);
                prop_assert_eq!(s.len(), expect);
                prop_assert_eq!(s.iter().count(), expect);
            }

            #[test]
            fn all_rows_have_arity_columns(
                a in proptest::collection::vec("[a-z]{1,3}", 1..4),
                b in proptest::collection::vec("[0-9]{1,3}", 1..4),
            ) {
                let s = set(vec![InputSource::product(a), InputSource::product(b)]);
                for row in s.iter() {
                    prop_assert_eq!(row.len(), s.arity());
                }
            }
        }
    }
}
