#include "src/core/itc.h"

namespace pivot {

// Leaf nodes have left == right == nullptr and `value` 0 or 1. Interior nodes
// have both children non-null (value unused). All trees are kept in normal
// form: an interior node never has two identical leaf children.
struct ItcId::Node {
  uint8_t value = 0;
  NodePtr left;
  NodePtr right;

  bool is_leaf() const { return left == nullptr; }
};

namespace {

using Node = ItcId::Node;

}  // namespace

// Immortal singleton leaves: every zero/one leaf in every tree aliases one
// static node through a shared_ptr with no owner, so copying a leaf — the
// seed ID each fresh baggage starts from, ItcId() — touches no reference
// count and no cache line another thread writes.
static const std::shared_ptr<const Node>& ZeroLeaf() {
  static const Node kZeroNode{};
  static const std::shared_ptr<const Node> kZero(std::shared_ptr<const Node>(), &kZeroNode);
  return kZero;
}

static const std::shared_ptr<const Node>& OneLeaf() {
  static const Node kOneNode{1, nullptr, nullptr};
  static const std::shared_ptr<const Node> kOne(std::shared_ptr<const Node>(), &kOneNode);
  return kOne;
}

// Builds an interior node, collapsing to a leaf when both children are equal
// leaves (the ITC `norm` function).
static std::shared_ptr<const Node> MakeNode(std::shared_ptr<const Node> l,
                                            std::shared_ptr<const Node> r) {
  if (l->is_leaf() && r->is_leaf() && l->value == r->value) {
    return l->value == 0 ? ZeroLeaf() : OneLeaf();
  }
  auto n = std::make_shared<Node>();
  n->left = std::move(l);
  n->right = std::move(r);
  return n;
}

ItcId::ItcId() : root_(ZeroLeaf()) {}

ItcId ItcId::Seed() { return ItcId(OneLeaf()); }

bool ItcId::IsZero() const { return root_->is_leaf() && root_->value == 0; }

bool ItcId::IsOne() const { return root_->is_leaf() && root_->value == 1; }

namespace {

// split(i) from the ITC paper, figure "fork".
std::pair<ItcId::NodePtr, ItcId::NodePtr> SplitNode(const ItcId::NodePtr& n) {
  if (n->is_leaf()) {
    if (n->value == 0) {
      return {ZeroLeaf(), ZeroLeaf()};
    }
    // split(1) = ((1,0), (0,1))
    return {MakeNode(OneLeaf(), ZeroLeaf()), MakeNode(ZeroLeaf(), OneLeaf())};
  }
  const bool left_zero = n->left->is_leaf() && n->left->value == 0;
  const bool right_zero = n->right->is_leaf() && n->right->value == 0;
  if (left_zero) {
    // split((0, i)) = ((0, i1), (0, i2))
    auto [i1, i2] = SplitNode(n->right);
    return {MakeNode(ZeroLeaf(), i1), MakeNode(ZeroLeaf(), i2)};
  }
  if (right_zero) {
    // split((i, 0)) = ((i1, 0), (i2, 0))
    auto [i1, i2] = SplitNode(n->left);
    return {MakeNode(i1, ZeroLeaf()), MakeNode(i2, ZeroLeaf())};
  }
  // split((i1, i2)) = ((i1, 0), (0, i2))
  return {MakeNode(n->left, ZeroLeaf()), MakeNode(ZeroLeaf(), n->right)};
}

ItcId::NodePtr JoinNodes(const ItcId::NodePtr& a, const ItcId::NodePtr& b) {
  if (a->is_leaf()) {
    if (a->value == 1) {
      return OneLeaf();  // 1 already owns everything (tolerates overlap).
    }
    return b;  // sum(0, i) = i
  }
  if (b->is_leaf()) {
    if (b->value == 1) {
      return OneLeaf();
    }
    return a;
  }
  return MakeNode(JoinNodes(a->left, b->left), JoinNodes(a->right, b->right));
}

bool NodesOverlap(const ItcId::NodePtr& a, const ItcId::NodePtr& b) {
  if (a->is_leaf()) {
    if (a->value == 0) {
      return false;
    }
    // a owns the whole subinterval; overlap iff b is non-zero anywhere.
    return !(b->is_leaf() && b->value == 0);
  }
  if (b->is_leaf()) {
    return NodesOverlap(b, a);
  }
  return NodesOverlap(a->left, b->left) || NodesOverlap(a->right, b->right);
}

bool NodesEqual(const ItcId::NodePtr& a, const ItcId::NodePtr& b) {
  if (a.get() == b.get()) {
    return true;
  }
  if (a->is_leaf() != b->is_leaf()) {
    return false;
  }
  if (a->is_leaf()) {
    return a->value == b->value;
  }
  return NodesEqual(a->left, b->left) && NodesEqual(a->right, b->right);
}

// Canonical byte encoding: 0x00 = leaf 0, 0x01 = leaf 1, 0x02 = interior
// followed by left then right encodings.
void EncodeNode(const ItcId::NodePtr& n, std::vector<uint8_t>* out) {
  if (n->is_leaf()) {
    out->push_back(n->value);
    return;
  }
  out->push_back(0x02);
  EncodeNode(n->left, out);
  EncodeNode(n->right, out);
}

bool DecodeNode(const uint8_t* data, size_t size, size_t* pos, ItcId::NodePtr* out,
                int depth) {
  // Depth bound guards against stack exhaustion on adversarial wire input.
  constexpr int kMaxDepth = 512;
  if (depth > kMaxDepth || *pos >= size) {
    return false;
  }
  uint8_t tag = data[(*pos)++];
  switch (tag) {
    case 0x00:
      *out = ZeroLeaf();
      return true;
    case 0x01:
      *out = OneLeaf();
      return true;
    case 0x02: {
      ItcId::NodePtr l;
      ItcId::NodePtr r;
      if (!DecodeNode(data, size, pos, &l, depth + 1) ||
          !DecodeNode(data, size, pos, &r, depth + 1)) {
        return false;
      }
      *out = MakeNode(std::move(l), std::move(r));
      return true;
    }
    default:
      return false;
  }
}

std::string NodeToString(const ItcId::NodePtr& n) {
  if (n->is_leaf()) {
    return n->value == 0 ? "0" : "1";
  }
  return "(" + NodeToString(n->left) + ", " + NodeToString(n->right) + ")";
}

}  // namespace

std::pair<ItcId, ItcId> ItcId::Split() const {
  auto [l, r] = SplitNode(root_);
  return {ItcId(std::move(l)), ItcId(std::move(r))};
}

ItcId ItcId::Join(const ItcId& a, const ItcId& b) { return ItcId(JoinNodes(a.root_, b.root_)); }

bool ItcId::Overlaps(const ItcId& a, const ItcId& b) { return NodesOverlap(a.root_, b.root_); }

bool ItcId::operator==(const ItcId& other) const { return NodesEqual(root_, other.root_); }

void ItcId::Encode(std::vector<uint8_t>* out) const { EncodeNode(root_, out); }

bool ItcId::Decode(const uint8_t* data, size_t size, size_t* pos, ItcId* out) {
  NodePtr root;
  if (!DecodeNode(data, size, pos, &root, 0)) {
    return false;
  }
  *out = ItcId(std::move(root));
  return true;
}

std::string ItcId::ToString() const { return NodeToString(root_); }

}  // namespace pivot
