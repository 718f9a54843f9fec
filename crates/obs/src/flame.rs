//! The span profile: exact self time per span path, folded from the
//! phase tree, plus a self-contained flamegraph renderer.
//!
//! Every enabled handle already keeps the phase tree ([`crate::span`]):
//! exact nanoseconds per `(parent, name)` node. [`FoldedProfile`] folds a
//! snapshot of it into Brendan-Gregg collapsed lines, one per span path
//! (`infomap;optimize;level;sweep;decide 1234`), each carrying the path's
//! *self* time: the node's nanoseconds minus its children's, saturating
//! at 0, in whole microseconds. A child span always nests on the thread
//! that opened its parent, so the children never sum past the parent;
//! the saturation only covers a parent that is still open, whose time is
//! charged when it closes.
//!
//! The fold is the one profile every consumer reads: `prof.folded` and
//! `prof.svg` under `--obs-dir`, the endpoint's `/profile?seconds=N`
//! (the difference of two folds, [`FoldedProfile::since`]) and
//! `/flame.svg`, the black-box `profile` section, and a bench's
//! `meta.profile` summary.

use std::collections::{BTreeMap, HashMap};

use crate::span::SpanSnapshot;

/// Self time per span path, in the phase tree's depth-first, name-sorted
/// order (so two runs with the same span shape fold to the same keys in
/// the same order, however their threads interleaved).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FoldedProfile {
    /// `(path, self µs)`: the path's frames are sanitized span names
    /// joined by `;`, root first.
    pub stacks: Vec<(String, u64)>,
}

impl FoldedProfile {
    /// Folds a phase-tree snapshot (a flush report's `spans`).
    pub fn from_spans(spans: &[SpanSnapshot]) -> Self {
        fn visit(node: &SpanSnapshot, prefix: &str, out: &mut Vec<(String, u64)>) {
            let mut key = prefix.to_string();
            if !key.is_empty() {
                key.push(';');
            }
            key.push_str(&sanitize_frame(node.name));
            let children: u64 = node.children.iter().map(|c| c.nanos).sum();
            out.push((key.clone(), node.nanos.saturating_sub(children) / 1000));
            for child in &node.children {
                visit(child, &key, out);
            }
        }
        let mut stacks = Vec::new();
        for root in spans {
            visit(root, "", &mut stacks);
        }
        FoldedProfile { stacks }
    }

    /// The self time each path gained since `earlier`, keeping only the
    /// paths that gained any: the `/profile?seconds=N` window.
    pub fn since(&self, earlier: &FoldedProfile) -> FoldedProfile {
        let before: HashMap<&str, u64> = earlier
            .stacks
            .iter()
            .map(|(k, us)| (k.as_str(), *us))
            .collect();
        let stacks = self
            .stacks
            .iter()
            .filter_map(|(k, us)| {
                let gained = us.saturating_sub(before.get(k.as_str()).copied().unwrap_or(0));
                (gained > 0).then(|| (k.clone(), gained))
            })
            .collect();
        FoldedProfile { stacks }
    }

    /// Self time summed over every path.
    pub fn total_us(&self) -> u64 {
        self.stacks.iter().map(|(_, us)| us).sum()
    }

    /// Collapsed format: one `path self_us` line per span path. Feed to
    /// any flamegraph tool, or to [`render_flamegraph`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, us) in &self.stacks {
            out.push_str(key);
            out.push(' ');
            out.push_str(&us.to_string());
            out.push('\n');
        }
        out
    }

    /// The `k` paths with the most self time, most first (ties by path).
    pub fn top(&self, k: usize) -> Vec<(String, u64)> {
        let mut ranked = self.stacks.clone();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }
}

/// Keeps a frame parseable inside a `a;b;c value` line.
fn sanitize_frame(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            ';' => ':',
            ' ' | '\n' | '\t' => '_',
            c => c,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Flamegraph SVG renderer

struct FlameNode {
    total: u64,
    children: BTreeMap<String, FlameNode>,
}

impl FlameNode {
    fn new() -> Self {
        FlameNode {
            total: 0,
            children: BTreeMap::new(),
        }
    }

    fn insert<'a>(&mut self, mut path: impl Iterator<Item = &'a str>, us: u64) {
        self.total += us;
        if let Some(head) = path.next() {
            self.children
                .entry(head.to_string())
                .or_insert_with(FlameNode::new)
                .insert(path, us);
        }
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FlameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Deterministic warm-palette fill from the frame name.
fn frame_color(name: &str) -> String {
    let mut h: u32 = 2166136261;
    for b in name.bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 130);
    let b = (h >> 16) % 60;
    format!("rgb({r},{g},{b})")
}

const FLAME_WIDTH: f64 = 1200.0;
const FRAME_HEIGHT: f64 = 16.0;

fn render_node(out: &mut String, name: &str, node: &FlameNode, x: f64, width: f64, depth: usize) {
    let y = 24.0 + depth as f64 * FRAME_HEIGHT;
    let label = if width >= 60.0 {
        // ~7 px/char budget, ellipsized.
        let max_chars = (width / 7.0) as usize;
        let mut text: String = name.chars().take(max_chars).collect();
        if text.len() < name.len() {
            text.push('…');
        }
        text
    } else {
        String::new()
    };
    out.push_str(&format!(
        "<g><title>{} ({} µs)</title><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{width:.2}\" \
         height=\"{:.2}\" fill=\"{}\" rx=\"1\"/>",
        xml_escape(name),
        node.total,
        FRAME_HEIGHT - 1.0,
        frame_color(name),
    ));
    if !label.is_empty() {
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" font-family=\"monospace\">{}</text>",
            x + 3.0,
            y + FRAME_HEIGHT - 5.0,
            xml_escape(&label)
        ));
    }
    out.push_str("</g>\n");
    let mut cx = x;
    for (child_name, child) in &node.children {
        let cw = width * child.total as f64 / node.total.max(1) as f64;
        if cw >= 0.25 {
            render_node(out, child_name, child, cx, cw, depth + 1);
        }
        cx += cw;
    }
}

/// Renders the profile as a self-contained icicle-layout flamegraph SVG
/// (root on top, children below, width ∝ self µs summed over the
/// subtree). No external tooling or scripts required to view it.
pub fn render_flamegraph(profile: &FoldedProfile, title: &str) -> String {
    let mut root = FlameNode::new();
    for (key, us) in &profile.stacks {
        root.insert(key.split(';'), *us);
    }
    let depth = root.depth();
    let height = 24.0 + (depth as f64 + 1.0) * FRAME_HEIGHT + 8.0;
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{FLAME_WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {FLAME_WIDTH} {height}\">\n"
    ));
    out.push_str(&format!(
        "<text x=\"4\" y=\"16\" font-size=\"13\" font-family=\"monospace\">{} — {} µs</text>\n",
        xml_escape(title),
        root.total,
    ));
    if root.total > 0 {
        render_node(&mut out, "all", &root, 0.0, FLAME_WIDTH, 0);
    } else {
        out.push_str(
            "<text x=\"4\" y=\"40\" font-size=\"12\" font-family=\"monospace\">(no span time)\
             </text>\n",
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, nanos: u64, children: Vec<SpanSnapshot>) -> SpanSnapshot {
        SpanSnapshot {
            name,
            seconds: nanos as f64 / 1e9,
            nanos,
            count: 1,
            children,
        }
    }

    #[test]
    fn self_time_is_total_minus_children_in_walk_order() {
        let spans = vec![node(
            "run x",
            10_000,
            vec![node("a;b", 3_000, vec![]), node("c", 4_500, vec![])],
        )];
        let folded = FoldedProfile::from_spans(&spans);
        assert_eq!(
            folded.stacks,
            vec![
                ("run_x".to_string(), 2),
                ("run_x;a:b".to_string(), 3),
                ("run_x;c".to_string(), 4),
            ]
        );
        assert_eq!(folded.render(), "run_x 2\nrun_x;a:b 3\nrun_x;c 4\n");
        assert_eq!(folded.top(1), vec![("run_x;c".to_string(), 4)]);
        assert_eq!(folded.total_us(), 9);
    }

    #[test]
    fn an_open_parent_saturates_at_zero() {
        // The parent is still open: its node holds no time yet.
        let spans = vec![node("open", 0, vec![node("done", 7_000, vec![])])];
        let folded = FoldedProfile::from_spans(&spans);
        assert_eq!(folded.stacks[0], ("open".to_string(), 0));
        assert_eq!(folded.stacks[1], ("open;done".to_string(), 7));
    }

    #[test]
    fn since_keeps_the_paths_that_gained() {
        let before = FoldedProfile {
            stacks: vec![("a".into(), 5), ("a;b".into(), 2)],
        };
        let after = FoldedProfile {
            stacks: vec![("a".into(), 5), ("a;b".into(), 9), ("c".into(), 1)],
        };
        assert_eq!(
            after.since(&before).stacks,
            vec![("a;b".to_string(), 7), ("c".to_string(), 1)]
        );
    }

    #[test]
    fn flamegraph_svg_shape() {
        let profile = FoldedProfile {
            stacks: vec![("level".into(), 4), ("level;sweep".into(), 8)],
        };
        let svg = render_flamegraph(&profile, "test");
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("sweep"));
        assert!(svg.contains("12 µs"));
        // Balanced <g> groups: one per rendered frame.
        assert_eq!(svg.matches("<g>").count(), svg.matches("</g>").count());
        assert!(render_flamegraph(&FoldedProfile::default(), "t").contains("no span time"));
    }
}
