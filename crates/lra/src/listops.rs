//! ListOps proxy: evaluate a small nested MAX/MIN/MED expression.
//!
//! The label is the value of the expression (0–9), so solving the task
//! requires hierarchical reasoning over the whole sequence, like the real
//! LRA ListOps dataset.

use crate::Sample;
use rand::rngs::StdRng;
use rand::Rng;

/// Vocabulary: digits 0–9, three operators, brackets and padding.
pub(crate) const VOCAB: usize = 16;

const OP_MAX: usize = 10;
const OP_MIN: usize = 11;
const OP_MED: usize = 12;
const OPEN: usize = 13;
const CLOSE: usize = 14;
const PAD: usize = 15;

#[derive(Debug)]
enum Node {
    Digit(usize),
    Expr(usize, Vec<Node>),
}

fn gen_node(depth: usize, rng: &mut StdRng) -> Node {
    if depth == 0 || rng.gen_bool(0.6) {
        Node::Digit(rng.gen_range(0..10))
    } else {
        let op = *[OP_MAX, OP_MIN, OP_MED].get(rng.gen_range(0usize..3)).expect("op index");
        let arity = rng.gen_range(2..=4);
        let children = (0..arity).map(|_| gen_node(depth - 1, rng)).collect();
        Node::Expr(op, children)
    }
}

fn eval(node: &Node) -> usize {
    match node {
        Node::Digit(d) => *d,
        Node::Expr(op, children) => {
            let mut vals: Vec<usize> = children.iter().map(eval).collect();
            vals.sort_unstable();
            match *op {
                OP_MAX => *vals.last().expect("non-empty expression"),
                OP_MIN => vals[0],
                _ => vals[vals.len() / 2],
            }
        }
    }
}

fn serialize(node: &Node, out: &mut Vec<usize>) {
    match node {
        Node::Digit(d) => out.push(*d),
        Node::Expr(op, children) => {
            out.push(OPEN);
            out.push(*op);
            for c in children {
                serialize(c, out);
            }
            out.push(CLOSE);
        }
    }
}

/// Generates one ListOps sample of exactly `seq_len` tokens.
pub(crate) fn sample(seq_len: usize, rng: &mut StdRng) -> Sample {
    loop {
        let root = Node::Expr(
            *[OP_MAX, OP_MIN, OP_MED].get(rng.gen_range(0usize..3)).expect("op index"),
            (0..rng.gen_range(2..=4)).map(|_| gen_node(1, rng)).collect(),
        );
        let mut tokens = Vec::new();
        serialize(&root, &mut tokens);
        if tokens.len() <= seq_len {
            let label = eval(&root);
            tokens.resize(seq_len, PAD);
            return Sample::new(tokens, label);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn evaluation_matches_hand_example() {
        // [MAX 3 [MIN 7 2] 5] = max(3, min(7,2), 5) = 5
        let expr = Node::Expr(
            OP_MAX,
            vec![
                Node::Digit(3),
                Node::Expr(OP_MIN, vec![Node::Digit(7), Node::Digit(2)]),
                Node::Digit(5),
            ],
        );
        assert_eq!(eval(&expr), 5);
    }

    #[test]
    fn median_of_even_list_takes_upper_middle() {
        let expr = Node::Expr(
            OP_MED,
            vec![Node::Digit(1), Node::Digit(9), Node::Digit(4), Node::Digit(6)],
        );
        assert_eq!(eval(&expr), 6);
    }

    #[test]
    fn samples_fit_and_are_padded() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let s = sample(32, &mut rng);
            assert_eq!(s.tokens.len(), 32);
            assert!(s.label < 10);
            assert_eq!(s.tokens[0], OPEN);
        }
    }
}
