package grid;

// C-style array fields: `int c[];` declares the same field as `int[] c;`.
public class Matrix {
    private int c[];
    int d[][] = {{1}}, e, f[];
    String[] rows[] = null;

    int size() {
        return e;
    }
}
