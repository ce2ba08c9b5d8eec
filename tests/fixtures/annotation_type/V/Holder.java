public class Holder {
    public @interface Inner {
        String value();
    }

    protected static @interface Tagged {
    }

    abstract @interface Old {
        int level();
    }

    @Deprecated
    public @interface Annotated {
    }

    @interface Bare {
    }

    int z;

    int size() {
        return z;
    }
}
