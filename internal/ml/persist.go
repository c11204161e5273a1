package ml

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model persistence: trained regressors serialize to a tagged JSON
// envelope so a deployment can build the ECoST database and models once
// (cmd/ecost-train) and ship them to the schedulers. Every regressor in
// this package round-trips through SaveModel/LoadModel.

// modelEnvelope tags the concrete type.
type modelEnvelope struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// SaveModel writes a trained regressor to w.
func SaveModel(w io.Writer, m Regressor) error {
	kind, payload, err := encodeModel(m)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(modelEnvelope{Kind: kind, Data: payload})
}

// LoadModel reads a regressor written by SaveModel.
func LoadModel(r io.Reader) (Regressor, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, fmt.Errorf("ml: load model: %w", err)
	}
	return decodeModel(env)
}

func encodeModel(m Regressor) (string, json.RawMessage, error) {
	switch v := m.(type) {
	case *LinearRegression:
		raw, err := json.Marshal(v)
		return "linreg", raw, err
	case *REPTree:
		raw, err := json.Marshal(treeToDTO(v))
		return "reptree", raw, err
	case *MLP:
		raw, err := json.Marshal(mlpDTO{
			Hidden: v.Hidden, In: v.in, W1: v.w1, W2: v.w2,
			Scaler: v.scaler, YMean: v.yMean, YStd: v.yStd,
		})
		return "mlp", raw, err
	case *Bagging:
		dto := baggingDTO{}
		for _, member := range v.members {
			kind, raw, err := encodeModel(member)
			if err != nil {
				return "", nil, err
			}
			dto.Members = append(dto.Members, modelEnvelope{Kind: kind, Data: raw})
		}
		raw, err := json.Marshal(dto)
		return "bagging", raw, err
	default:
		return "", nil, fmt.Errorf("ml: save model: unsupported type %T", m)
	}
}

func decodeModel(env modelEnvelope) (Regressor, error) {
	switch env.Kind {
	case "linreg":
		m := &LinearRegression{}
		if err := json.Unmarshal(env.Data, m); err != nil {
			return nil, fmt.Errorf("ml: load linreg: %w", err)
		}
		return m, nil
	case "reptree":
		var dto treeDTO
		if err := json.Unmarshal(env.Data, &dto); err != nil {
			return nil, fmt.Errorf("ml: load reptree: %w", err)
		}
		return dtoToTree(dto)
	case "mlp":
		var dto mlpDTO
		if err := json.Unmarshal(env.Data, &dto); err != nil {
			return nil, fmt.Errorf("ml: load mlp: %w", err)
		}
		m := &MLP{Hidden: dto.Hidden, in: dto.In, w1: dto.W1, w2: dto.W2,
			scaler: dto.Scaler, yMean: dto.YMean, yStd: dto.YStd}
		if m.Hidden != len(m.w1) || len(m.w2) != m.Hidden+1 {
			return nil, fmt.Errorf("ml: load mlp: inconsistent shapes")
		}
		return m, nil
	case "bagging":
		var dto baggingDTO
		if err := json.Unmarshal(env.Data, &dto); err != nil {
			return nil, fmt.Errorf("ml: load bagging: %w", err)
		}
		b := &Bagging{N: len(dto.Members)}
		for _, me := range dto.Members {
			member, err := decodeModel(me)
			if err != nil {
				return nil, err
			}
			b.members = append(b.members, member)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("ml: load model: unknown kind %q", env.Kind)
	}
}

type mlpDTO struct {
	Hidden int         `json:"hidden"`
	In     int         `json:"in"`
	W1     [][]float64 `json:"w1"`
	W2     []float64   `json:"w2"`
	Scaler *Scaler     `json:"scaler"`
	YMean  float64     `json:"y_mean"`
	YStd   float64     `json:"y_std"`
}

type baggingDTO struct {
	Members []modelEnvelope `json:"members"`
}

// treeDTO flattens the tree into an index-linked node array.
type treeDTO struct {
	Nodes []nodeDTO `json:"nodes"` // node 0 is the root; empty = untrained
}

type nodeDTO struct {
	Feature int     `json:"f"`
	Thresh  float64 `json:"t"`
	Value   float64 `json:"v"`
	Left    int     `json:"l"` // -1 = none
	Right   int     `json:"r"`
}

func treeToDTO(t *REPTree) treeDTO {
	var dto treeDTO
	if t.root == nil {
		return dto
	}
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(dto.Nodes)
		dto.Nodes = append(dto.Nodes, nodeDTO{
			Feature: n.feature, Thresh: n.thresh, Value: n.value, Left: -1, Right: -1,
		})
		if n.left != nil {
			dto.Nodes[idx].Left = walk(n.left)
		}
		if n.right != nil {
			dto.Nodes[idx].Right = walk(n.right)
		}
		return idx
	}
	walk(t.root)
	return dto
}

func dtoToTree(dto treeDTO) (*REPTree, error) {
	t := NewREPTree()
	if len(dto.Nodes) == 0 {
		return t, nil
	}
	nodes := make([]*node, len(dto.Nodes))
	for i, nd := range dto.Nodes {
		nodes[i] = &node{feature: nd.Feature, thresh: nd.Thresh, value: nd.Value}
	}
	for i, nd := range dto.Nodes {
		if nd.Left >= 0 {
			if nd.Left >= len(nodes) || nd.Left <= i {
				return nil, fmt.Errorf("ml: load reptree: bad left link %d at node %d", nd.Left, i)
			}
			nodes[i].left = nodes[nd.Left]
		}
		if nd.Right >= 0 {
			if nd.Right >= len(nodes) || nd.Right <= i {
				return nil, fmt.Errorf("ml: load reptree: bad right link %d at node %d", nd.Right, i)
			}
			nodes[i].right = nodes[nd.Right]
		}
		if nodes[i].feature >= 0 && (nodes[i].left == nil || nodes[i].right == nil) {
			return nil, fmt.Errorf("ml: load reptree: internal node %d missing a child", i)
		}
	}
	t.root = nodes[0]
	t.leaves = countLeaves(t.root)
	return t, nil
}
