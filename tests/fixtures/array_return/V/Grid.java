package grid;

// C-style array returns: `int f()[]` declares the same method as `int[] f()`.
public class Grid {
    private int[] cells;

    int f()[] {
        return cells;
    }

    int g() {
        return 1;
    }

    String[] rows()[] throws IllegalStateException {
        return null;
    }
}
